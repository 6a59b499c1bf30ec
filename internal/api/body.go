package api

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

const (
	// maxBody is the largest response body Remote accepts. A ping is 25 kB;
	// a server that streams without end must not grow the client without
	// bound.
	maxBody = 16 << 20
	// maxPooledBody is the largest buffer kept for reuse: one oversized
	// body must not pin its memory in the pool.
	maxPooledBody = 1 << 20
)

// bodyBuf is a pooled buffer holding one whole JSON body: a response
// Remote has read and is about to decode, one WriteJSON has encoded and is
// about to send, or a /pingClient body the ping walk wrote into ping.
// Nothing that outlives putBody may point into it.
type bodyBuf struct {
	bytes.Buffer
	lim  io.LimitedReader // readAll's, here so that it is not allocated per read
	ping pingBody
}

var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

func getBody() *bodyBuf { return bodyPool.Get().(*bodyBuf) }

func putBody(b *bodyBuf) {
	if b.Cap() > maxPooledBody || b.ping.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	b.ping.Reset()
	bodyPool.Put(b)
}

// pingBody is the /pingClient handler's sink for the ping walk: it appends
// the body straight from the pinned epoch, reading each path only during the
// walk, so it builds no response.
type pingBody struct{ core.PingEncoder }

func (b *pingBody) begin(now int64)                    { b.Begin(now) }
func (b *pingBody) product(vt core.VehicleType, _ int) { b.Type(vt.String()) }
func (b *pingBody) car(c sim.NearCar)                  { b.Car(c.ID, c.Pos, c.Path()) }
func (b *pingBody) end(ewt, surge float64)             { b.EndType(ewt, surge) }

// readAll reads r to its end into the buffer, refusing more than maxBody.
func (b *bodyBuf) readAll(r io.Reader) error {
	b.lim = io.LimitedReader{R: r, N: maxBody + 1}
	_, err := b.ReadFrom(&b.lim)
	b.lim.R = nil
	if err != nil {
		return err
	}
	if b.lim.N <= 0 {
		return fmt.Errorf("body exceeds %d bytes", maxBody)
	}
	return nil
}

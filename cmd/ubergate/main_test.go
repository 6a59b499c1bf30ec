package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
)

// TestRunFlags pins the command line: the gateway's own three flags plus
// the edge flags it shares with uberd, and nothing else.
func TestRunFlags(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{"addr", "health-interval", "shards"}
	edge := flag.NewFlagSet("edge", flag.ContinueOnError)
	new(chaos.Edge).Flags(edge, time.Second)
	edge.VisitAll(func(f *flag.Flag) { want = append(want, f.Name) })
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}

func TestRunRejects(t *testing.T) {
	const shards = "manhattan=http://127.0.0.1:1"
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // substring
	}{
		{"unknown flag", []string{"-nope"}, "flag provided but not defined: -nope"},
		{"missing shards", nil, "-shards is required"},
		{"shard without a URL", []string{"-shards", "manhattan"}, `bad shard "manhattan"`},
		{"shard in an unknown city", []string{"-shards", "bad=shard=spec"}, "bad"},
		{"negative fault probability", []string{"-shards", shards, "-chaos-reset", "-1"}, "-chaos-reset -1"},
		{"fault probability above one", []string{"-shards", shards, "-chaos-error", "1.5"}, "-chaos-error 1.5"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q does not contain %q", tc.name, stderr.String(), tc.stderr)
		}
	}
}

// logWatch is run's stderr: it closes seen once want has been written.
type logWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	want string
	seen chan struct{}
}

func newLogWatch(want string) *logWatch { return &logWatch{want: want, seen: make(chan struct{})} }

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	select {
	case <-l.seen:
	default:
		if strings.Contains(l.buf.String(), l.want) {
			close(l.seen)
		}
	}
	return len(p), nil
}

func (l *logWatch) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestRunServesAndShutsDown is the live row: one healthy shard, every
// forwarded request failed by the injector while the probes outside the
// edge keep answering, then a cancelled ctx must exit 0.
func TestRunServesAndShutsDown(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", api.Healthz(nil))
	mux.Handle("GET /readyz", api.NewReadiness().Handler())
	shard := httptest.NewServer(mux)
	defer shard.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // reserve a free port, then hand it to the daemon

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := newLogWatch("ubergate: serving 1 shards on " + addr)
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-drain", "0", "-shards", "manhattan=" + shard.URL, "-chaos-error", "1"}, stderr)
	}()
	select {
	case <-stderr.seen:
	case code := <-done:
		t.Fatalf("run exited %d before serving:\n%s", code, stderr)
	case <-time.After(60 * time.Second):
		t.Fatalf("never served:\n%s", stderr)
	}

	get := func(path string) (int, string) {
		t.Helper()
		var lastErr error
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			resp, err := http.Get("http://" + addr + path)
			if err != nil { // the log line precedes the listener
				lastErr = err
				continue
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}
		t.Fatalf("GET %s: %v\n%s", path, lastErr, stderr)
		return 0, ""
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d %q, want 200: probes must bypass the edge", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d %q, want 200 with an eligible shard", code, body)
	}
	if code, body := get("/health"); code != http.StatusInternalServerError || !strings.Contains(body, "chaos: injected") {
		t.Errorf("/health = %d %q, want the injected 500: the forwarding surface must sit behind the edge", code, body)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("exit %d after cancel, want 0:\n%s", code, stderr)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("did not shut down:\n%s", stderr)
	}
	for _, line := range []string{"shard manhattan-0 (manhattan) -> " + shard.URL + " alive=true ready=true",
		"ubergate: chaos enabled (seed 1, error 1.000,"} {
		if !strings.Contains(stderr.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, stderr)
		}
	}
}

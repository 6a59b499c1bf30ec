package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

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

func TestRunRejects(t *testing.T) {
	// -h is a request, not a rejection.
	var help bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &help); code != 0 || !strings.Contains(help.String(), "-city") {
		t.Errorf("-h: exit %d, want 0 with the flags (stderr %q)", code, &help)
	}
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string // substring
	}{
		{"unknown flag", []string{"-nope"}, "flag provided but not defined: -nope"},
		{"unknown city", []string{"-city", "nope"}, "nope"},
		{"unknown engine", []string{"-engine", "nope"}, "mult2015, additive, withholding"},
		{"ingest without bus", []string{"-bus-ingest", t.TempDir()}, "-bus-ingest requires -bus"},
		{"zero speedup", []string{"-speedup", "0"}, "-speedup must be positive"},
		{"NaN speedup", []string{"-speedup", "NaN"}, "-speedup must be positive"},
		{"zero fleet scale", []string{"-fleet-scale", "0"}, "-fleet-scale must be positive"},
		{"negative sim workers", []string{"-sim-workers", "-1"}, "workers -1"},
		{"fault probability above one", []string{"-chaos-error", "1.5"}, "-chaos-error 1.5"},
		{"negative probability shifts the bands", []string{"-chaos-error", "-0.5", "-chaos-reset", "0.3"}, "-chaos-error -0.5"},
		{"faults over unity", []string{"-chaos-error", "0.6", "-chaos-truncate", "0.6"}, "must sum to at most 1"},
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

// TestRunServesAndShutsDown is the live row: a speedup whose tick interval
// rounds to zero (it used to panic in time.NewTicker), every API request
// failed by the injector while the probes and /metrics outside the edge
// keep answering, then a cancelled ctx must exit 0.
func TestRunServesAndShutsDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // reserve a free port, then hand it to the daemon

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := newLogWatch("uberd: serving manhattan on " + addr)
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-warmup", "0", "-drain", "0",
			"-speedup", "1e10", "-chaos-error", "1", "-max-inflight", "8"}, stderr)
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
		t.Errorf("/readyz = %d %q, want 200", code, body)
	}
	if code, body := get("/health"); code != http.StatusInternalServerError || !strings.Contains(body, "chaos: injected") {
		t.Errorf("/health = %d %q, want the injected 500: the API must sit behind the edge", code, body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, `chaos_faults_total{kind="error"} 1`) {
		t.Errorf("/metrics does not count the injected fault:\n%s", body)
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
	for _, line := range []string{"uberd: chaos enabled (seed 1, error 1.000,", "uberd: shutting down"} {
		if !strings.Contains(stderr.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, stderr)
		}
	}
}

func TestTickInterval(t *testing.T) {
	for _, tc := range []struct {
		speedup float64
		want    time.Duration
	}{
		{60, 5 * time.Second / 60},
		{1, 5 * time.Second},
		{5e9, 1},
		{1e10, 1}, // 0.5ns: floored, not zero
		{math.Inf(1), 1},
	} {
		if got := tickInterval(5, tc.speedup); got != tc.want {
			t.Errorf("tickInterval(5, %g) = %v, want %v", tc.speedup, got, tc.want)
		}
	}
}

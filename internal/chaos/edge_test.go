package chaos

import (
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestEdgeFlags(t *testing.T) {
	var e Edge
	fs := flag.NewFlagSet("edge", flag.ContinueOnError)
	e.Flags(fs, 7*time.Second)

	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"chaos-error", "chaos-latency", "chaos-latency-prob", "chaos-reset", "chaos-seed",
		"chaos-truncate", "drain", "max-inflight", "request-timeout", "retry-after"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registered flags = %v, want exactly %v", names, want)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if def := (Edge{Faults: Config{Seed: 1}, RetryAfter: time.Second, RequestTimeout: 7 * time.Second, Drain: 500 * time.Millisecond}); e != def {
		t.Errorf("defaults = %+v, want %+v", e, def)
	}

	err := fs.Parse([]string{"-chaos-seed", "7", "-chaos-error", "0.1", "-chaos-reset", "0.2", "-chaos-truncate", "0.3",
		"-chaos-latency-prob", "0.4", "-chaos-latency", "150ms", "-max-inflight", "20", "-retry-after", "3s",
		"-request-timeout", "2s", "-drain", "0"})
	if err != nil {
		t.Fatal(err)
	}
	parsed := Edge{
		Faults:      Config{Seed: 7, ErrorProb: 0.1, ResetProb: 0.2, TruncateProb: 0.3, LatencyProb: 0.4, Latency: 150 * time.Millisecond},
		MaxInflight: 20, RetryAfter: 3 * time.Second, RequestTimeout: 2 * time.Second,
	}
	if e != parsed {
		t.Errorf("parsed = %+v, want %+v", e, parsed)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"zero", Config{}, ""},
		{"full partition", Config{ErrorProb: 0.5, ResetProb: 0.25, TruncateProb: 0.25, LatencyProb: 1, Latency: time.Second}, ""},
		{"error above one", Config{ErrorProb: 1.5}, "-chaos-error 1.5"},
		{"negative error shifts the bands", Config{ErrorProb: -0.5, ResetProb: 0.3}, "-chaos-error -0.5"},
		{"negative reset", Config{ResetProb: -1}, "-chaos-reset -1"},
		{"truncate NaN", Config{TruncateProb: math.NaN()}, "-chaos-truncate NaN"},
		{"latency-prob infinite", Config{LatencyProb: math.Inf(1)}, "-chaos-latency-prob +Inf"},
		{"over unity", Config{ErrorProb: 0.6, ResetProb: 0.3, TruncateProb: 0.2}, "-chaos-error + -chaos-reset + -chaos-truncate"},
		{"negative latency", Config{Latency: -time.Second}, "-chaos-latency -1s"},
	} {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		// The edge refuses to build an injector from what Validate rejects.
		if _, ierr := (&Edge{Faults: tc.cfg}).Injector(); (ierr == nil) != (err == nil) {
			t.Errorf("%s: Injector err = %v, Validate err = %v", tc.name, ierr, err)
		}
	}
	if inj, err := (&Edge{}).Injector(); inj != nil || err != nil {
		t.Errorf("no faults enabled: Injector = %v, %v; want nil, nil", inj, err)
	}
}

// get fetches url and returns the status, body and Retry-After header.
func get(t *testing.T, ts *httptest.Server) (int, string, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header.Get("Retry-After")
}

// TestEdgeWrapOrder pins shed → inject → recover → timeout by what each
// layer must and must not see.
func TestEdgeWrapOrder(t *testing.T) {
	t.Run("shed is outside the injector", func(t *testing.T) {
		// Every admitted request is truncated, which runs the real
		// handler: the first parks in it holding the only slot.
		e := Edge{Faults: Config{TruncateProb: 1}, MaxInflight: 1, RetryAfter: 3 * time.Second, RequestTimeout: 5 * time.Second}
		inj, err := e.Injector()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		entered, release := make(chan struct{}), make(chan struct{})
		ts := httptest.NewServer(e.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
		}), inj, reg))
		defer ts.Close()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := ts.Client().Get(ts.URL); err == nil {
				resp.Body.Close()
			}
		}()
		<-entered
		faults := reg.Counter("chaos_faults_total", obs.L("kind", "truncate"))
		if n := faults.Value(); n != 1 {
			t.Fatalf("chaos_faults_total after the parked request = %d, want 1", n)
		}

		status, body, retryAfter := get(t, ts)
		if status != http.StatusServiceUnavailable || retryAfter != "3" || !strings.Contains(body, "overloaded") {
			t.Errorf("second request = %d %q Retry-After %q, want the shed 503 with Retry-After 3", status, body, retryAfter)
		}
		if n := reg.Counter("server_shed_total").Value(); n != 1 {
			t.Errorf("server_shed_total = %d, want 1", n)
		}
		if n := faults.Value(); n != 1 {
			t.Errorf("chaos_faults_total = %d after a shed request, want 1: the injector saw a request that was never admitted", n)
		}
		close(release)
		wg.Wait()
	})

	// An injector that is enabled (so the layer is really in the chain)
	// but practically never fires.
	quiet := Config{ErrorProb: 1e-18}

	t.Run("a handler panic is a counted 500", func(t *testing.T) {
		e := Edge{Faults: quiet, RequestTimeout: 5 * time.Second}
		inj, _ := e.Injector()
		reg := obs.NewRegistry()
		ts := httptest.NewServer(e.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }), inj, reg))
		defer ts.Close()
		status, body, _ := get(t, ts)
		if status != http.StatusInternalServerError || body != "{\"error\":\"internal server error\"}\n" {
			t.Errorf("panic answered %d %q, want Recover's 500", status, body)
		}
		if n := reg.Counter("server_panics_total").Value(); n != 1 {
			t.Errorf("server_panics_total = %d, want 1", n)
		}
		if n := reg.Counter("chaos_faults_total", obs.L("kind", "error")).Value(); n != 0 {
			t.Errorf("chaos_faults_total{error} = %d: a recovered panic was counted as an injected fault", n)
		}
	})

	t.Run("an over-budget handler is the timeout's 503", func(t *testing.T) {
		e := Edge{Faults: quiet, MaxInflight: 4, RequestTimeout: 20 * time.Millisecond}
		inj, _ := e.Injector()
		reg := obs.NewRegistry()
		ts := httptest.NewServer(e.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}), inj, reg))
		defer ts.Close()
		status, body, retryAfter := get(t, ts)
		if status != http.StatusServiceUnavailable || !strings.Contains(body, "timed out") || retryAfter != "" {
			t.Errorf("slow handler answered %d %q Retry-After %q, want the timeout's 503", status, body, retryAfter)
		}
		if n := reg.Counter("server_timeouts_total").Value(); n != 1 {
			t.Errorf("server_timeouts_total = %d, want 1", n)
		}
		if n := reg.Counter("server_shed_total").Value() + reg.Counter("server_panics_total").Value(); n != 0 {
			t.Errorf("shed + panics = %d, want 0", n)
		}
	})
}

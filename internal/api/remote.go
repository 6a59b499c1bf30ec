package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// DefaultTimeout bounds each HTTP attempt when the caller doesn't supply
// its own *http.Client. The paper's scripts hung on lost pings until the
// authors added timeouts; we don't repeat that.
const DefaultTimeout = 10 * time.Second

// maxRetryAfter caps how long a server-supplied Retry-After header can
// make the client sleep between attempts (a misbehaving server must not
// be able to park the campaign for an hour).
const maxRetryAfter = 10 * time.Second

// Remote is a core.Service backed by a Server over HTTP: what cmd/measure
// uses to run a campaign against a separately running cmd/uberd, mirroring
// the paper's setup of measurement scripts talking to a remote service.
//
// Unlike the paper's first-cut scripts, Remote assumes the transport is
// unreliable: every call carries a timeout, transient failures (transport
// errors, 5xx, truncated bodies, 429/503 with Retry-After) are retried
// with exponential backoff and full jitter, and a per-endpoint circuit
// breaker fails fast while the backend is down, probing half-open until it
// recovers. Semantic errors (ErrUnknownAccount, ErrRateLimited without
// Retry-After, ErrOutOfService) are surfaced immediately — the backend
// answered, retrying can't change the answer.
type Remote struct {
	base string
	hc   *http.Client

	retry      chaos.Backoff
	noRetry    bool
	breakerCfg chaos.BreakerConfig
	noBreaker  bool
	budget     *retryBudget

	mu       sync.Mutex
	breakers map[string]*chaos.Breaker

	// nil-safe metric handles (wired by WithRegistry).
	mRetries   *obs.Counter // attempts beyond the first
	mGiveUps   *obs.Counter // calls that exhausted every attempt
	mFastFail  *obs.Counter // calls rejected by an open breaker
	mOpens     *obs.Counter // breaker transitions into open
	mNowErrs   *obs.Counter // Now() calls that hit a dead backend
	mExhausted *obs.Counter // retries skipped on an empty retry budget
	mFallback  *obs.Counter // ping bodies core.DecodePing handed to encoding/json
}

// retryBudget is a token bucket bounding the client's aggregate retry
// volume across all endpoints. Exponential backoff decorrelates retries
// in time but does not bound how many are in flight against a recovering
// shard: a fleet of clients each retrying 12% of its requests is still a
// 12% overload forever. The bucket makes the aggregate self-limiting:
// each retry spends one token, and only successful requests earn tokens
// back (refill per success, capped), so sustained retry volume can never
// exceed the refill fraction of goodput. When the bucket is empty the
// call gives up instead of retrying (counted, so an exhausted budget is
// visible in /metrics rather than masquerading as backend failure).
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	refill float64 // tokens credited per successful request
}

// defaultRetryBudget allows bursts of 20 retries and a sustained retry
// rate of 20% of successful traffic — comfortably above the chaos-smoke
// fault rates, far below a retry storm.
func defaultRetryBudget() *retryBudget {
	return &retryBudget{tokens: 20, cap: 20, refill: 0.2}
}

// takeRetry spends one token; false means the budget is exhausted.
func (b *retryBudget) takeRetry() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// creditSuccess refills the bucket for one successful request.
func (b *retryBudget) creditSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.refill
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

var _ core.Service = (*Remote)(nil)

// RemoteOption configures a Remote.
type RemoteOption func(*Remote)

// WithTimeout sets the per-attempt timeout of the default HTTP client. It
// has no effect when NewRemote was given an explicit *http.Client (that
// client's own timeout governs).
func WithTimeout(d time.Duration) RemoteOption {
	return func(r *Remote) {
		if r.hc == defaultClient() {
			r.hc = &http.Client{Timeout: d}
		}
	}
}

// WithBackoff overrides the retry policy.
func WithBackoff(b chaos.Backoff) RemoteOption {
	return func(r *Remote) { r.retry = b }
}

// WithoutRetry disables retries: every call makes exactly one attempt
// (the pre-resilience behavior; some tests and probes want it).
func WithoutRetry() RemoteOption {
	return func(r *Remote) { r.noRetry = true }
}

// WithBreaker overrides the per-endpoint circuit-breaker policy.
func WithBreaker(cfg chaos.BreakerConfig) RemoteOption {
	return func(r *Remote) { r.breakerCfg = cfg }
}

// WithoutBreaker disables circuit breaking.
func WithoutBreaker() RemoteOption {
	return func(r *Remote) { r.noBreaker = true }
}

// WithRetryBudget overrides the client-wide retry token bucket: capacity
// tokens of burst, refillPerSuccess tokens earned back per successful
// request. The budget bounds aggregate retry volume across every
// endpoint so retries cannot storm a recovering shard.
func WithRetryBudget(capacity int, refillPerSuccess float64) RemoteOption {
	return func(r *Remote) {
		r.budget = &retryBudget{
			tokens: float64(capacity),
			cap:    float64(capacity),
			refill: refillPerSuccess,
		}
	}
}

// WithoutRetryBudget removes the retry budget (retries bounded only by
// per-call attempt counts; tests that count exact attempts want this).
func WithoutRetryBudget() RemoteOption {
	return func(r *Remote) { r.budget = nil }
}

// WithRegistry wires the client's resilience counters into reg:
//
//	client_retries_total          retry attempts (beyond each call's first)
//	client_giveups_total          calls that failed after every attempt
//	client_breaker_fastfail_total calls rejected while a breaker was open
//	client_breaker_opens_total    breaker transitions into the open state
//	client_now_errors_total       Now() calls answered 0 for a dead backend
//	client_retry_budget_exhausted_total retries skipped on an empty budget
//	client_decode_fallback_total  ping bodies outside the fast decoder's grammar
func WithRegistry(reg *obs.Registry) RemoteOption {
	return func(r *Remote) {
		r.mRetries = reg.Counter("client_retries_total")
		r.mGiveUps = reg.Counter("client_giveups_total")
		r.mFastFail = reg.Counter("client_breaker_fastfail_total")
		r.mOpens = reg.Counter("client_breaker_opens_total")
		r.mNowErrs = reg.Counter("client_now_errors_total")
		r.mExhausted = reg.Counter("client_retry_budget_exhausted_total")
		r.mFallback = reg.Counter("client_decode_fallback_total")
	}
}

var sharedDefaultClient *http.Client
var sharedDefaultOnce sync.Once

// defaultClient is the client used when the caller passes nil: the
// standard transport with DefaultTimeout (never http.DefaultClient, which
// waits forever).
func defaultClient() *http.Client {
	sharedDefaultOnce.Do(func() {
		sharedDefaultClient = &http.Client{Timeout: DefaultTimeout}
	})
	return sharedDefaultClient
}

// NewRemote returns a client for the service at base (e.g.
// "http://localhost:8080"). It does not dial until the first call. A nil
// hc selects a default client with DefaultTimeout (override the timeout
// with WithTimeout, or pass your own client).
func NewRemote(base string, hc *http.Client, opts ...RemoteOption) *Remote {
	if hc == nil {
		hc = defaultClient()
	}
	r := &Remote{
		base:     base,
		hc:       hc,
		breakers: make(map[string]*chaos.Breaker),
		budget:   defaultRetryBudget(),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// breaker returns (creating if needed) the endpoint's circuit breaker.
func (r *Remote) breaker(endpoint string) *chaos.Breaker {
	if r.noBreaker {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[endpoint]
	if !ok {
		cfg := r.breakerCfg
		prev := cfg.OnStateChange
		cfg.OnStateChange = func(from, to chaos.BreakerState) {
			if to == chaos.BreakerOpen {
				r.mOpens.Inc()
			}
			if prev != nil {
				prev(from, to)
			}
		}
		b = chaos.NewBreaker(cfg)
		r.breakers[endpoint] = b
	}
	return b
}

// BreakerState exposes an endpoint's breaker state (tests and dashboards).
func (r *Remote) BreakerState(endpoint string) chaos.BreakerState {
	return r.breaker(endpoint).State()
}

// attempt is one try's classified outcome. terminal means retrying cannot
// help (the backend answered with a semantic error); retryAfter carries a
// server-requested delay when present.
type attemptOutcome struct {
	err        error
	terminal   bool
	retryAfter time.Duration
}

// call runs try under the endpoint's breaker and retry policy.
func (r *Remote) call(ctx context.Context, endpoint string, try func(context.Context) attemptOutcome) error {
	br := r.breaker(endpoint)
	if !br.Allow() {
		r.mFastFail.Inc()
		return fmt.Errorf("api: %s: %w", endpoint, chaos.ErrCircuitOpen)
	}
	max := r.maxAttempts()
	var out attemptOutcome
	for a := 0; a < max; a++ {
		out = try(ctx)
		if out.err == nil {
			br.Report(true)
			r.budget.creditSuccess()
			return nil
		}
		if out.terminal {
			// The backend is alive and answered; don't trip the breaker.
			br.Report(true)
			return out.err
		}
		if a == max-1 {
			break
		}
		if !r.budget.takeRetry() {
			// The aggregate retry budget is spent: give up instead of
			// joining a retry storm against a recovering backend.
			r.mExhausted.Inc()
			break
		}
		r.mRetries.Inc()
		sleep := r.retry.Delay(a, nil)
		if out.retryAfter > 0 {
			sleep = out.retryAfter
			if sleep > maxRetryAfter {
				sleep = maxRetryAfter
			}
		}
		if err := sleepCtx(ctx, sleep); err != nil {
			br.Report(false)
			return fmt.Errorf("api: %s: %w (last error: %v)", endpoint, err, out.err)
		}
	}
	br.Report(false)
	r.mGiveUps.Inc()
	return out.err
}

// maxAttempts resolves the effective attempt budget.
func (r *Remote) maxAttempts() int {
	if r.noRetry {
		return 1
	}
	if r.retry.MaxAttempts > 0 {
		return r.retry.MaxAttempts
	}
	return 5 // chaos.Backoff default
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// applyDeadlineHeader stamps the remaining context deadline onto req as
// chaos.DeadlineHeader so the server (and, through the gateway, the
// shard behind it) can clamp its handler timeout to the caller's budget.
func applyDeadlineHeader(ctx context.Context, req *http.Request) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	if ms := time.Until(dl).Milliseconds(); ms > 0 {
		req.Header.Set(chaos.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
}

// retryAfterHeader parses a Retry-After value in seconds (the form our
// server and most APIs emit; HTTP dates are ignored).
func retryAfterHeader(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// drain empties and closes a response body so the connection can be
// reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
}

// RegisterCtx creates the account on the remote service.
func (r *Remote) RegisterCtx(ctx context.Context, clientID string) error {
	body, _ := json.Marshal(map[string]string{"client_id": clientID})
	return r.call(ctx, "/login", func(ctx context.Context) attemptOutcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/login", bytes.NewReader(body))
		if err != nil {
			return attemptOutcome{err: fmt.Errorf("api: login: %w", err), terminal: true}
		}
		req.Header.Set("Content-Type", "application/json")
		applyDeadlineHeader(ctx, req)
		resp, err := r.hc.Do(req)
		if err != nil {
			return attemptOutcome{err: fmt.Errorf("api: login: %w", err)}
		}
		defer drain(resp)
		if resp.StatusCode == http.StatusOK {
			return attemptOutcome{}
		}
		out := attemptOutcome{
			err:        fmt.Errorf("api: login: status %d", resp.StatusCode),
			terminal:   resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests,
			retryAfter: retryAfterHeader(resp),
		}
		if resp.StatusCode == http.StatusTooManyRequests && out.retryAfter == 0 {
			out.err, out.terminal = ErrRateLimited, true
		}
		return out
	})
}

// Register creates the account on the remote service (client.Registrar).
func (r *Remote) Register(clientID string) error {
	return r.RegisterCtx(context.Background(), clientID)
}

// get performs one resilient GET of u, decoding the JSON body of a 200
// into out. It is the one place Remote classifies a response: every read
// endpoint, /health included, comes through here.
func (r *Remote) get(ctx context.Context, path, u string, out any) error {
	return r.call(ctx, path, func(ctx context.Context) attemptOutcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return attemptOutcome{err: fmt.Errorf("api: GET %s: %w", path, err), terminal: true}
		}
		applyDeadlineHeader(ctx, req)
		resp, err := r.hc.Do(req)
		if err != nil {
			return attemptOutcome{err: fmt.Errorf("api: GET %s: %w", path, err)}
		}
		defer drain(resp)
		switch resp.StatusCode {
		case http.StatusOK:
			if err := r.decode(resp.Body, out); err != nil {
				// A short read or a decode failure on a 200 is a truncated or
				// garbled body: transport-class, retryable.
				return attemptOutcome{err: fmt.Errorf("api: GET %s: decode: %w", path, err)}
			}
			return attemptOutcome{}
		case http.StatusUnauthorized:
			return attemptOutcome{err: ErrUnknownAccount, terminal: true}
		case http.StatusTooManyRequests:
			// A 429 with Retry-After is the server pacing us: honor it. A
			// bare 429 is the hourly budget — waiting a backoff won't help.
			ra := retryAfterHeader(resp)
			return attemptOutcome{err: ErrRateLimited, terminal: ra == 0, retryAfter: ra}
		case http.StatusNotFound:
			return attemptOutcome{err: ErrOutOfService, terminal: true}
		default:
			return attemptOutcome{
				err:        fmt.Errorf("api: GET %s: status %d", path, resp.StatusCode),
				terminal:   resp.StatusCode < 500,
				retryAfter: retryAfterHeader(resp),
			}
		}
	})
}

// decode reads one whole body into a pooled buffer and decodes it into out
// with json.Unmarshal's semantics: unlike a json.Decoder, anything but
// whitespace after the value is an error. A ping goes through
// core.DecodePing, which allocates the result at its exact size and hands
// what it is not sure of to json.Unmarshal itself; neither leaves anything
// in out that points into the buffer, so it returns to the pool here.
func (r *Remote) decode(body io.Reader, out any) error {
	buf := getBody()
	defer putBody(buf)
	if err := buf.readAll(body); err != nil {
		return err
	}
	ping, ok := out.(*core.PingResponse)
	if !ok {
		return json.Unmarshal(buf.Bytes(), out)
	}
	fast, err := core.DecodePing(buf.Bytes(), ping)
	if !fast {
		r.mFallback.Inc()
	}
	return err
}

// query performs get against one of the per-account GPS endpoints.
func (r *Remote) query(ctx context.Context, path, clientID string, loc geo.LatLng, out any) error {
	u := fmt.Sprintf("%s%s?client=%s&lat=%.7f&lng=%.7f",
		r.base, path, url.QueryEscape(clientID), loc.Lat, loc.Lng)
	return r.get(ctx, path, u, out)
}

// PingClientCtx implements core.Service over the wire with a caller
// context.
func (r *Remote) PingClientCtx(ctx context.Context, clientID string, loc geo.LatLng) (*core.PingResponse, error) {
	var resp core.PingResponse
	if err := r.query(ctx, "/pingClient", clientID, loc, &resp); err != nil {
		return nil, err
	}
	// TypeName travels on the wire; rebuild the enum for local use.
	for i := range resp.Types {
		vt, err := core.ParseVehicleType(resp.Types[i].TypeName)
		if err != nil {
			return nil, fmt.Errorf("api: bad type in response: %w", err)
		}
		resp.Types[i].Type = vt
	}
	return &resp, nil
}

// PingClient implements core.Service over the wire.
func (r *Remote) PingClient(clientID string, loc geo.LatLng) (*core.PingResponse, error) {
	return r.PingClientCtx(context.Background(), clientID, loc)
}

// EstimatePriceCtx implements core.Service over the wire with a caller
// context.
func (r *Remote) EstimatePriceCtx(ctx context.Context, clientID string, loc geo.LatLng) ([]core.PriceEstimate, error) {
	var out []core.PriceEstimate
	if err := r.query(ctx, "/estimates/price", clientID, loc, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// EstimatePrice implements core.Service over the wire.
func (r *Remote) EstimatePrice(clientID string, loc geo.LatLng) ([]core.PriceEstimate, error) {
	return r.EstimatePriceCtx(context.Background(), clientID, loc)
}

// EstimateTimeCtx implements core.Service over the wire with a caller
// context.
func (r *Remote) EstimateTimeCtx(ctx context.Context, clientID string, loc geo.LatLng) ([]core.TimeEstimate, error) {
	var out []core.TimeEstimate
	if err := r.query(ctx, "/estimates/time", clientID, loc, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateTime implements core.Service over the wire.
func (r *Remote) EstimateTime(clientID string, loc geo.LatLng) ([]core.TimeEstimate, error) {
	return r.EstimateTimeCtx(context.Background(), clientID, loc)
}

// NowErr returns the remote backend's simulation time, or an error when
// the backend is unreachable — so callers can tell a dead service from one
// at epoch.
func (r *Remote) NowErr() (int64, error) {
	return r.NowCtx(context.Background())
}

// NowCtx is NowErr with a caller context.
func (r *Remote) NowCtx(ctx context.Context) (int64, error) {
	var body struct {
		Time int64 `json:"time"`
	}
	if err := r.get(ctx, "/health", r.base+"/health", &body); err != nil {
		return 0, err
	}
	return body.Time, nil
}

// Now implements core.Service. The interface cannot carry an error, so a
// dead backend reads as 0 (epoch) — but the failure is counted in
// client_now_errors_total when a registry is wired, and callers that care
// use NowErr.
func (r *Remote) Now() int64 {
	t, err := r.NowErr()
	if err != nil {
		r.mNowErrs.Inc()
		return 0
	}
	return t
}

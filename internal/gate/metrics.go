package gate

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// MetricsHandler serves the fan-in /metrics exposition: the gateway's own
// registry first, then every shard's /metrics scraped concurrently with
// each sample rewritten to carry a shard="name" label. The aggregation
// degrades to partial results — a dead or slow shard contributes a
// labeled absence comment (and gate_shard_up already reads 0) instead of
// blocking or failing the scrape. Shard TYPE/HELP comments are dropped:
// the same metric arrives from several shards and a strict parser would
// reject duplicate metadata; the series themselves stay grep- and
// PromQL-shaped.
func (g *Gateway) MetricsHandler() http.Handler {
	scrapeErrs := func(shard string) {
		g.cfg.Registry.Counter("gate_scrape_errors_total", obs.L("shard", shard)).Inc()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		type scrape struct {
			text string
			err  error
		}
		results := make([]scrape, len(g.shards))
		var wg sync.WaitGroup
		for i, s := range g.shards {
			wg.Add(1)
			go func(i int, s *Shard) {
				defer wg.Done()
				text, err := g.scrapeShard(r.Context(), s)
				results[i] = scrape{text: text, err: err}
			}(i, s)
		}
		wg.Wait()

		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.cfg.Registry.WritePrometheus(w)
		for i, s := range g.shards {
			if results[i].err != nil {
				scrapeErrs(s.Name)
				fmt.Fprintf(w, "# ubergate: shard %s metrics unavailable: %v\n", s.Name, results[i].err)
				continue
			}
			writeLabeled(w, results[i].text, `shard="`+s.Name+`"`)
		}
	})
}

// scrapeTimeout bounds each shard's /metrics scrape in the fan-in: a slow
// or dead shard is labeled missing, never blocks the exposition.
const scrapeTimeout = 2 * time.Second

// scrapeShard fetches one shard's exposition under the scrape budget.
func (g *Gateway) scrapeShard(ctx context.Context, s *Shard) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := g.cfg.HTTPClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	const maxExposition = 8 << 20 // a shard exposition is tens of KiB; 8 MiB is a hard stop
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxExposition))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// writeLabeled copies exposition text with label injected into every
// sample line, dropping comments.
func writeLabeled(w io.Writer, text, label string) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Fprintln(w, injectLabel(line, label))
	}
}

// injectLabel rewrites one Prometheus sample line to carry an extra
// label: `name{a="b"} v` → `name{LABEL,a="b"} v`, `name v` →
// `name{LABEL} v`. Lines that don't parse pass through unchanged.
func injectLabel(line, label string) string {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	switch {
	case brace >= 0 && (space < 0 || brace < space):
		return line[:brace+1] + label + "," + line[brace+1:]
	case space > 0:
		return line[:space] + "{" + label + "}" + line[space:]
	default:
		return line
	}
}

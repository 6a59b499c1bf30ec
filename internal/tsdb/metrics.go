// Observability wiring. All handles come from internal/obs and are
// nil-safe, so the store instruments unconditionally and pays nothing when
// no registry is attached.

package tsdb

import "repro/internal/obs"

type metrics struct {
	rows        *obs.Counter
	gapRows     *obs.Counter
	walBytes    *obs.Counter // tsdb_bytes_written_total{kind="wal"}
	segBytes    *obs.Counter // tsdb_bytes_written_total{kind="segment"}
	walFsync    *obs.Histogram
	compactDur  *obs.Histogram
	compactErrs *obs.Counter // auto-compactions that failed in Append
	segments    *obs.Gauge
	headRows    *obs.Gauge
	bytesPerRow *obs.Gauge // sealed bytes per row of the latest segment
	ratio       *obs.Gauge // raw (WAL payload) bytes / sealed bytes
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		rows:        r.Counter("tsdb_rows_total"),
		gapRows:     r.Counter("tsdb_gap_rows_total"),
		walBytes:    r.Counter("tsdb_bytes_written_total", obs.L("kind", "wal")),
		segBytes:    r.Counter("tsdb_bytes_written_total", obs.L("kind", "segment")),
		walFsync:    r.Histogram("tsdb_wal_fsync_seconds", nil),
		compactDur:  r.Histogram("tsdb_compaction_seconds", nil),
		compactErrs: r.Counter("tsdb_compaction_errors_total"),
		segments:    r.Gauge("tsdb_segments"),
		headRows:    r.Gauge("tsdb_head_rows"),
		bytesPerRow: r.Gauge("tsdb_segment_bytes_per_row"),
		ratio:       r.Gauge("tsdb_compression_ratio"),
	}
}

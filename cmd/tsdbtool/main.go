// Command tsdbtool inspects and maintains tsdb campaign stores (the
// directories written by `measure -record DIR`).
//
// Usage:
//
//	tsdbtool inspect DIR            summarize segments, series, time range,
//	                                bytes per chunk column
//	tsdbtool verify DIR             walk every CRC; nonzero exit on damage
//	tsdbtool compact DIR            merge all sealed segments into one
//
// verify re-reads every byte: whole-file CRCs (a single flipped byte
// anywhere fails), per-chunk CRCs, decode of every chunk, and a WAL scan
// reporting how many rows a reopen would recover after a crash.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/record"
	"repro/internal/tsdb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage:
  tsdbtool inspect DIR
  tsdbtool verify DIR
  tsdbtool compact DIR`

// errUsage marks a command line already reported as unparseable.
var errUsage = errors.New("usage")

// run executes one subcommand and returns the exit code: 0 on success or
// when help was asked for, 1 when the subcommand fails, 2 for a command
// line it cannot parse.
func run(args []string, stdout, stderr io.Writer) int {
	err := errUsage
	switch {
	case len(args) == 1 && (args[0] == "-h" || args[0] == "-help" || args[0] == "--help"):
		fmt.Fprintln(stderr, usage)
		err = flag.ErrHelp
	case len(args) != 2: // every other subcommand takes exactly DIR
	case args[0] == "inspect":
		err = inspect(stdout, args[1])
	case args[0] == "verify":
		err = verify(stdout, args[1])
	case args[0] == "compact":
		err = compact(stdout, args[1])
	}
	switch {
	case err == nil, err == flag.ErrHelp: // done, or the help asked for is printed
		return 0
	case err == errUsage:
		fmt.Fprintln(stderr, usage)
		return 2
	}
	fmt.Fprintln(stderr, "tsdbtool:", err)
	return 1
}

func inspect(w io.Writer, dir string) error {
	db, err := tsdb.Open(dir, tsdb.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer db.Close()
	st := db.Stats()
	fmt.Fprintf(w, "store: %s\n", dir)
	if hdr, err := record.ReadHeader(db); err == nil {
		fmt.Fprintf(w, "campaign: city=%s clients=%d start=%d\n", hdr.City, len(hdr.Clients), hdr.Start)
	}
	fmt.Fprintf(w, "segments: %d (%d bytes, %d rows)\n", st.Segments, st.SegmentBytes, st.SegmentRows)
	fmt.Fprintf(w, "wal: %d rows pending seal (%d recovered at open)\n", st.HeadRows, st.Recovered)
	if st.HasData {
		fmt.Fprintf(w, "time range: [%d, %d] (%.1f campaign hours)\n",
			st.MinTime, st.MaxTime, float64(st.MaxTime-st.MinTime)/3600)
	}
	fmt.Fprintf(w, "series: %d\n", len(db.Series()))
	if st.SegmentRows == 0 {
		return nil
	}
	fmt.Fprintf(w, "bytes/row (sealed): %.1f\n", float64(st.SegmentBytes)/float64(st.SegmentRows))
	cols, err := db.Columns()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "chunk payloads (%d chunks): section, bytes, B/row\n", cols.Chunks)
	perRow := func(name string, n int64) {
		fmt.Fprintf(w, "  %-10s %12d %8.1f\n", name, n, float64(n)/float64(cols.Rows))
	}
	for i, name := range tsdb.ChunkSections {
		perRow(name, cols.Sections[i])
	}
	perRow("headers", cols.Headers)
	return nil
}

func verify(w io.Writer, dir string) error {
	rep, err := tsdb.Verify(dir)
	if err != nil {
		return err
	}
	for _, s := range rep.Segments {
		fmt.Fprintf(w, "segment %s: %d rows, %d chunks, %d bytes, [%d, %d] ok\n",
			s.Path, s.Rows, s.Chunks, s.Bytes, s.MinT, s.MaxT)
	}
	fmt.Fprintf(w, "sealed rows: %d\n", rep.Rows)
	switch {
	case rep.WALStale:
		fmt.Fprintln(w, "wal: stale (head already sealed; will be discarded)")
	case rep.WALTorn:
		fmt.Fprintf(w, "wal: recovered %d rows (torn tail dropped)\n", rep.WALRows)
	default:
		fmt.Fprintf(w, "wal: recovered %d rows\n", rep.WALRows)
	}
	fmt.Fprintln(w, "ok")
	return nil
}

func compact(w io.Writer, dir string) error {
	db, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		return err
	}
	before := db.Stats()
	if err := db.Compact(); err != nil {
		db.Close()
		return err
	}
	after := db.Stats()
	if err := db.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "compacted %d segments (%d bytes) into %d (%d bytes)\n",
		before.Segments, before.SegmentBytes, after.Segments, after.SegmentBytes)
	return nil
}

// Text import and export: the v2 gzip-JSONL recording (a header line, then
// one tsdb.Row as JSON per line) that campaigns were written as before the
// tsdb store became the only one. This file is the only code that reads or
// writes it; everything else opens stores.

package record

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Convert copies a campaign between a store and its text form, direction
// inferred from the input: a store at in is exported to a gzip-JSONL file
// at out, rows in (time, series) order; anything else is read as an old
// gzip-JSONL recording and imported into a new store at out. It returns
// the header and the number of rows copied.
func Convert(in, out string, metrics *obs.Registry) (Header, int64, error) {
	db, hdr, err := Open(in)
	if errors.Is(err, errNotStore) {
		return importJSONL(in, out, metrics)
	}
	if err != nil {
		return hdr, 0, err
	}
	defer db.Close()
	rows, err := exportJSONL(db, hdr, out)
	return hdr, rows, err
}

// importJSONL appends every row of the gzip-JSONL recording at in to a new
// store at dir.
func importJSONL(in, dir string, metrics *obs.Registry) (Header, int64, error) {
	f, err := os.Open(in)
	if err != nil {
		return Header{}, 0, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return Header{}, 0, fmt.Errorf("record: %s: %w", in, err)
	}
	defer gz.Close()
	dec := json.NewDecoder(bufio.NewReaderSize(gz, 1<<16))
	var hdr Header
	if err := dec.Decode(&hdr); err != nil {
		return hdr, 0, fmt.Errorf("record: %s: read header: %w", in, err)
	}
	if hdr.Version != Version {
		return hdr, 0, fmt.Errorf("record: %s: unsupported version %d", in, hdr.Version)
	}
	db, err := openStore(dir, &hdr, metrics)
	if err != nil {
		return hdr, 0, err
	}
	var rows int64
	for {
		var row tsdb.Row
		if err = dec.Decode(&row); err != nil {
			break
		}
		if err = db.Append(row); err != nil {
			break
		}
		rows++
	}
	if errors.Is(err, io.EOF) {
		err = nil
	} else {
		err = fmt.Errorf("record: %s: row %d: %w", in, rows+1, err)
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return hdr, rows, err
}

// exportJSONL writes hdr and every row of db to a gzip-JSONL file at out.
func exportJSONL(db *tsdb.DB, hdr Header, out string) (int64, error) {
	f, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	gz := gzip.NewWriter(f)
	bw := bufio.NewWriterSize(gz, 1<<16)
	enc := json.NewEncoder(bw)
	err = enc.Encode(hdr)
	var rows int64
	it := db.QueryAll(MinTime, MaxTime)
	for err == nil && it.Next() {
		if err = enc.Encode(it.Row()); err == nil {
			rows++
		}
	}
	if err == nil {
		err = it.Err()
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = gz.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return rows, err
}

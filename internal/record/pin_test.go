package record

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"
)

// TestJSONLFixturePinned pins the v2 gzip-JSONL format by its text: a
// literal recording (header, one observation row, one gap row) must
// replay into exactly these sink calls, and recording those calls again
// must reproduce the text byte for byte — keys, key order and omitted
// empties included.
func TestJSONLFixturePinned(t *testing.T) {
	const fixture = `{"version":2,"city":"manhattan","start":600,"clients":[{"x":100,"y":-250.5},{"x":300,"y":0}]}
{"t":605,"c":0,"y":[{"t":"uberX","s":1.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.98},{"i":"sess-2","a":40.76,"o":-74}]},{"t":"uberT","s":1,"e":600}]}
{"t":605,"c":1,"g":true,"r":"http 503"}
`
	var rec bytes.Buffer
	gz := gzip.NewWriter(&rec)
	if _, err := io.WriteString(gz, fixture); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}

	var got rowCollector
	var out bytes.Buffer
	hdr, err := ReadHeader(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(&out, hdr)
	if err != nil {
		t.Fatal(err)
	}
	_, rounds, err := Replay(bytes.NewReader(rec.Bytes()), &got, w)
	if err != nil || rounds != 1 {
		t.Fatalf("Replay: %d rounds, err %v", rounds, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"obs c=0 t=605 [uberX s=1.5 e=240 (sess-1 40.74 -73.98) (sess-2 40.76 -74)] [uberT s=1 e=600]",
		"gap c=1 t=605 err=http 503",
		"end t=605",
	}
	if !reflect.DeepEqual(got.lines, want) {
		t.Errorf("replayed calls:\n got %q\nwant %q", got.lines, want)
	}

	zr, err := gzip.NewReader(&out)
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != fixture {
		t.Errorf("re-encoded recording:\n got %s\nwant %s", text, fixture)
	}
}

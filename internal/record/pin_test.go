package record

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestJSONLFixturePinned pins the v2 gzip-JSONL text by a literal
// recording (header, one observation row, one gap row): imported into a
// store it must replay into exactly these sink calls, and exporting the
// store must reproduce the text byte for byte — keys, key order and
// omitted empties included.
func TestJSONLFixturePinned(t *testing.T) {
	const fixture = `{"version":2,"city":"manhattan","start":600,"clients":[{"x":100,"y":-250.5},{"x":300,"y":0}]}
{"t":605,"c":0,"y":[{"t":"uberX","s":1.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.98},{"i":"sess-2","a":40.76,"o":-74}]},{"t":"uberT","s":1,"e":600}]}
{"t":605,"c":1,"g":true,"r":"http 503"}
`
	tmp := t.TempDir()
	in, store, out := filepath.Join(tmp, "in.jsonl.gz"), filepath.Join(tmp, "c.tsdb"), filepath.Join(tmp, "out.jsonl.gz")
	writeGzip(t, in, fixture)
	if _, rows, err := Convert(in, store, nil); err != nil || rows != 2 {
		t.Fatalf("import: %d rows, err %v", rows, err)
	}

	var got rowCollector
	if _, rounds, err := ReplayPathRange(store, MinTime, MaxTime, &got); err != nil || rounds != 1 {
		t.Fatalf("replay: %d rounds, err %v", rounds, err)
	}
	want := []string{
		"obs c=0 t=605 [uberX s=1.5 e=240 (sess-1 40.74 -73.98) (sess-2 40.76 -74)] [uberT s=1 e=600]",
		"gap c=1 t=605 err=http 503",
		"end t=605",
	}
	if !reflect.DeepEqual(got.lines, want) {
		t.Errorf("replayed calls:\n got %q\nwant %q", got.lines, want)
	}

	if _, rows, err := Convert(store, out, nil); err != nil || rows != 2 {
		t.Fatalf("export: %d rows, err %v", rows, err)
	}
	if text := readGzip(t, out); text != fixture {
		t.Errorf("exported recording:\n got %s\nwant %s", text, fixture)
	}
}

func writeGzip(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := io.WriteString(gz, text); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func readGzip(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

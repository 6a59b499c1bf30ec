package wire

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "META.json")
	for _, want := range []string{"old", "the new, longer content"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}

	// Failures: the temp file cannot be created (parent directory
	// missing), and the rename is refused after the temp file was written
	// (the target is a non-empty directory). Neither may leave a temp file
	// or disturb what was there.
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "keep"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "gone", "META.json"), sub} {
		if err := WriteFileAtomic(bad, []byte("x")); err == nil {
			t.Errorf("WriteFileAtomic(%s) succeeded", bad)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != "the new, longer content" {
		t.Errorf("failed writes changed the old file to %q", got)
	}
	if got, _ := os.ReadFile(filepath.Join(sub, "keep")); string(got) != "kept" {
		t.Errorf("failed rename disturbed its target: %q", got)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if _, err := os.Stat(filepath.Join(dir, "gone")); len(left) != 0 || err == nil {
		t.Errorf("left behind %v (gone/ exists: %v)", left, err == nil)
	}
}

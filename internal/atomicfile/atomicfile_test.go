package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteNewFileIs0644(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := Write(path, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("new file mode = %v, want 0644", fi.Mode().Perm())
	}
}

package server

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/monitor"
)

// TestTableBytesFromCachedTable checks that every checked-in spec
// reports the table footprint a standalone monitor.Compile measures,
// now that the figure comes from the spec's cached table.
func TestTableBytesFromCachedTable(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.cesc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs found: %v", err)
	}
	tables := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := compileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, sp := range specs {
			if sp.MultiClock {
				continue
			}
			want := 0
			if cm, err := monitor.Compile(sp.mon); err == nil {
				want = cm.TableBytes()
				tables++
			}
			if sp.TableBytes != want {
				t.Errorf("%s: table_bytes = %d, want %d", sp.Name, sp.TableBytes, want)
			}
		}
	}
	if tables == 0 {
		t.Fatal("no spec compiled to a table")
	}
}

package zoo

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/lang"
)

var update = flag.Bool("update", false, "rewrite golden canonical-form files")

// TestGoldenRoundTrip pins the canonical serialized form of one member
// per registered family and closes the loop: IR -> canonical text ->
// lang.ParseModel must reproduce the IR exactly (DeepEqual).
// The committed golden files make any canonical-form drift — which
// would silently split the icid content-addressed cache — a visible
// diff.
func TestGoldenRoundTrip(t *testing.T) {
	members := []struct {
		entry string
		size  Size
	}{
		{"fifo", Size{"width": 3, "depth": 2, "bound": 5}},
		{"network", Size{"procs": 2}},
		{"filter", Size{"depth": 2, "width": 1}},
		{"pipeline", Size{"regs": 2, "width": 1}},
		{"coherence", Size{"caches": 2}},
		{"link", Size{"data-bits": 1}},
		{"elevator", Size{"floors": 3}},
		{"traffic", Size{"roads": 2}},
		{"protostack", Size{"layers": 2}},
		{"fsm/turnstile", Size{}},
		{"fsm/door", Size{}},
	}
	for _, mb := range members {
		mb := mb
		t.Run(mb.entry, func(t *testing.T) {
			mo, err := Build(mb.entry, mb.size)
			if err != nil {
				t.Fatal(err)
			}
			canon := mo.Format()

			golden := filepath.Join("testdata", "golden", filepath.Base(mb.entry)+".canon")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(canon), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if canon != string(want) {
				t.Errorf("canonical form drifted from %s (regenerate with -update if intended)", golden)
			}

			// Round trip through the text frontend.
			back, err := lang.ParseModel(canon)
			if err != nil {
				t.Fatalf("canonical text does not parse: %v", err)
			}
			back.Name = mo.Name
			if !reflect.DeepEqual(mo, back) {
				t.Fatal("IR -> canon -> ParseModel -> IR is not the identity")
			}

			// And the canonical form is a fixed point of lang.Canon, so
			// a zoo-built model and its text submission share one icid
			// cache key.
			again, err := lang.Canon(canon)
			if err != nil {
				t.Fatal(err)
			}
			if again != canon {
				t.Error("lang.Canon is not a fixed point on the canonical form")
			}
		})
	}
}

package verify_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/verify"
	"repro/internal/zoo"
)

var update = flag.Bool("update", false, "rewrite testdata/events.ndjson")

// TestEventStreamGolden pins the NDJSON event stream of every engine
// byte for byte, over five small zoo models (two of them violating),
// with traces requested. The stream is what iciverify -events writes and
// icid serves, so a diff here is a wire change. Regenerate with
//
//	go test ./internal/verify -run TestEventStreamGolden -update
func TestEventStreamGolden(t *testing.T) {
	members := []struct {
		entry string
		size  zoo.Size
	}{
		{"fifo", zoo.Size{"width": 3, "depth": 2, "bound": 5}},
		{"link", zoo.Size{"data-bits": 1, "bug": 1}},
		{"network", zoo.Size{"procs": 2}},
		{"pipeline", zoo.Size{"regs": 2, "width": 1}},
		{"coherence", zoo.Size{"caches": 2, "bug": 1}},
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	observe := func(e verify.Event) {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, mb := range members {
		mo, err := zoo.Build(mb.entry, mb.size)
		if err != nil {
			t.Fatal(err)
		}
		for _, meth := range verify.Methods {
			verify.Run(mo.MustInstantiate(bdd.New()), meth, verify.Options{WantTrace: true, Observer: observe})
		}
	}

	golden := filepath.Join("testdata", "events.ndjson")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("event stream drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("event stream has %d lines, golden %d", len(gl)-1, len(wl)-1)
}

package zoo

import (
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"repro/internal/fsmtk"
	"repro/internal/ir"
)

// The embedded FSM-toolkit corpus: every committed `.fsm` machine is a
// registry entry named fsm/<machine>, built through the importer. The
// machines are fixed-size, so their only parameter set is the empty
// one — but they flow through the same registry as the parameterized
// families, which is what lets icibench grid them and icid serve them.

//go:embed fsm/*.fsm
var fsmFiles embed.FS

func init() {
	entries, err := fs.Glob(fsmFiles, "fsm/*.fsm")
	if err != nil {
		panic(err)
	}
	sort.Strings(entries)
	for _, path := range entries {
		src, err := fs.ReadFile(fsmFiles, path)
		if err != nil {
			panic(err)
		}
		f, err := fsmtk.Parse(src)
		if err != nil {
			panic(fmt.Sprintf("zoo: embedded %s: %v", path, err))
		}
		base := strings.TrimSuffix(strings.TrimPrefix(path, "fsm/"), ".fsm")
		Register(Entry{
			Name: "fsm/" + base,
			Desc: fmt.Sprintf("imported FSM-toolkit %s machine (%d states, %d symbols)",
				f.Type, len(f.States), len(f.Inputs)),
			Defaults: Size{},
			Sizes:    []Size{{}},
			Build: func(Size) (*ir.Model, error) {
				return f.Compile(), nil
			},
		})
	}
}

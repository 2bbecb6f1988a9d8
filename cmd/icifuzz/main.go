// Command icifuzz is the differential fuzzer for the verification
// engines: it generates seeded random FSM + safety-property instances
// (plus mutations of the paper's benchmark models), runs every engine
// and ablation on each one, and cross-checks the verdicts against each
// other and a brute-force explicit-state oracle.
//
// Usage:
//
//	icifuzz -seed 1 -n 1000               # a campaign; exit 1 on divergence
//	icifuzz -seed 1 -n 1000 -shrink -seeddir failures/
//	icifuzz -replay failures/div-000.json # re-run one saved seed
//	icifuzz -inject -n 50                 # self-test: a lying engine must be caught
//	icifuzz -engines pdr,fwd -n 200       # only these engines (ablations ride along)
//
// Reports are NDJSON on -out (default stdout): one line per divergent
// instance (every line with -v), then one summary line. Output is
// deterministic in -seed — no timing ever enters a report — so equal
// invocations are byte-identical and every failure is replayable.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/difftest"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "master seed; determines the whole campaign")
		n       = flag.Int("n", 100, "number of instances")
		budget  = flag.Int("budget", 0, "per-engine node limit (0 = unlimited)")
		maxIter = flag.Int("maxiter", 0, "per-engine iteration cap (0 = 64)")
		shrink  = flag.Bool("shrink", false, "minimize divergent instances before reporting")
		out     = flag.String("out", "", "write NDJSON reports here (default stdout)")
		seedDir = flag.String("seeddir", "", "write one replayable seed file per divergence into this directory")
		replay  = flag.String("replay", "", "run a single saved seed file instead of a campaign")
		inject  = flag.Bool("inject", false, "add the deliberately buggy engine (harness self-test)")
		verbose = flag.Bool("v", false, "report every instance, not only divergent ones")
		oracleS = flag.Int("oracle-state-bits", 0, "explicit-oracle state-bit cap (0 = 12)")
		oracleI = flag.Int("oracle-input-bits", 0, "explicit-oracle input-bit cap (0 = 6)")
		engines = flag.String("engines", "", "comma-separated filter over the engine grid; a base name keeps its ablations too (\"pdr\" keeps PDR and PDR/nopolicy)")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icifuzz: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}

	cfg := difftest.Config{
		MaxIterations:   *maxIter,
		NodeLimit:       *budget,
		OracleStateBits: *oracleS,
		OracleInputBits: *oracleI,
	}
	if *inject {
		cfg.Engines = difftest.InjectBuggyEngine()
	}
	if *engines != "" {
		specs := cfg.Engines
		if specs == nil {
			specs = difftest.DefaultEngines()
		}
		var names []string
		for _, name := range strings.Split(*engines, ",") {
			names = append(names, strings.TrimSpace(name))
		}
		filtered, err := difftest.FilterEngines(specs, names)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icifuzz: %v\n", err)
			os.Exit(2)
		}
		cfg.Engines = filtered
	}

	if *replay != "" {
		sf, err := difftest.LoadSeed(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icifuzz: %v\n", err)
			os.Exit(2)
		}
		rep, err := runOne(sf.Params, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icifuzz: %v\n", err)
			os.Exit(2)
		}
		w.Write(rep.NDJSON())
		if rep.Divergent() {
			fmt.Fprintf(os.Stderr, "icifuzz: seed %s still diverges\n", *replay)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "icifuzz: seed %s agrees\n", *replay)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	divergent := 0
	verified, violated, abstained := 0, 0, 0
	for i := 0; i < *n; i++ {
		params := difftest.RandomParams(rng)
		rep, err := runOne(params, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icifuzz: instance %d: %v\n", i, err)
			os.Exit(2)
		}
		switch {
		case rep.Oracle == nil:
			abstained++
		case rep.Oracle.Violated:
			violated++
		default:
			verified++
		}
		if rep.Divergent() {
			divergent++
			if *shrink {
				shrunk := difftest.Shrink(params, cfg, 0)
				if shrunk != params {
					if r2, err := runOne(shrunk, cfg); err == nil {
						rep = r2
					}
				}
				params = shrunk
			}
			w.Write(rep.NDJSON())
			if *seedDir != "" {
				if err := os.MkdirAll(*seedDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "icifuzz: %v\n", err)
					os.Exit(2)
				}
				path := filepath.Join(*seedDir, fmt.Sprintf("div-%03d.json", divergent-1))
				note := ""
				if len(rep.Divergences) > 0 {
					note = rep.Divergences[0]
				}
				if err := difftest.WriteSeed(path, difftest.SeedFile{Params: params, Note: note}); err != nil {
					fmt.Fprintf(os.Stderr, "icifuzz: %v\n", err)
					os.Exit(2)
				}
				fmt.Fprintf(os.Stderr, "icifuzz: wrote %s\n", path)
			}
		} else if *verbose {
			w.Write(rep.NDJSON())
		}
	}

	// The summary is part of the deterministic NDJSON stream: counts
	// only, no timing.
	fmt.Fprintf(w, `{"summary":{"seed":%d,"n":%d,"divergent":%d,"verified":%d,"violated":%d,"oracle_abstained":%d}}`+"\n",
		*seed, *n, divergent, verified, violated, abstained)
	fmt.Fprintf(os.Stderr, "icifuzz: %d instances, %d divergent (%d verified, %d violated, %d beyond oracle)\n",
		*n, divergent, verified, violated, abstained)
	if divergent > 0 {
		os.Exit(1)
	}
}

func runOne(params difftest.Params, cfg difftest.Config) (difftest.Report, error) {
	inst, err := difftest.Generate(params)
	if err != nil {
		return difftest.Report{}, err
	}
	return difftest.RunInstance(inst, cfg), nil
}

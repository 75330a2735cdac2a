// lisa-perf is the performance observatory's command line: it measures
// programs into canonical run records, keeps them in an append-only
// content-addressed ledger (.lperf), gates changes against the recorded
// baseline with two tiers of strictness (deterministic counters exact,
// wall time noise-aware), and renders trends across the ledger's history.
//
// Usage:
//
//	lisa-perf measure [-model m] [-mode m] [-runs n] prog.s        # measure, print
//	lisa-perf record  -ledger runs.lperf [-name fir] prog.s        # measure, append
//	lisa-perf diff    -ledger runs.lperf -name fir                 # last two records
//	lisa-perf gate    -ledger runs.lperf [-name fir] prog.s        # measure vs baseline
//	lisa-perf trend   -ledger runs.lperf [-html t.html] [-json]    # history sparklines
//	lisa-perf bench-entry -ledger runs.lperf -key pr9_x -into BENCH_foo.json
//
// gate exits 0 when every check passes, 1 with a per-metric explanation
// when any fails, 2 on usage errors. Deterministic drift (cycles, CPI,
// stall mix, coverage) always fails: simulation is deterministic, so
// those deltas are real behavior changes, never noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"golisa/internal/cli"
	"golisa/internal/core"
	"golisa/internal/gosim"
	"golisa/internal/perf"
	"golisa/internal/sim"
)

// jsonEncoder is the tools' standard indented JSON encoder.
func jsonEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	sub, args := os.Args[1], os.Args[2:]
	switch sub {
	case "measure", "record", "gate":
		runMeasureish(sub, args)
	case "diff":
		runDiff(args)
	case "trend":
		runTrend(args)
	case "bench-entry":
		runBenchEntry(args)
	case "-version", "--version":
		// Provenance without a subcommand, like the other tools.
		fs := flag.NewFlagSet("version", flag.ExitOnError)
		cli.AddVersionFlag(fs)
		_ = fs.Parse([]string{"-version"})
		cli.HandleVersion()
	default:
		fmt.Fprintf(os.Stderr, "%s: unknown subcommand %q\n", cli.Tool, sub)
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: %s measure|record|diff|gate|trend|bench-entry [flags] [prog.s]\n", cli.Tool)
	os.Exit(2)
}

// newFlagSet builds a subcommand flag set with the tool conventions.
func newFlagSet(sub string) *flag.FlagSet {
	fs := flag.NewFlagSet(cli.Tool+" "+sub, flag.ExitOnError)
	cli.AddVersionFlag(fs)
	return fs
}

// runMeasureish handles measure, record and gate — the three subcommands
// that execute a program.
func runMeasureish(sub string, args []string) {
	fs := newFlagSet(sub)
	var common cli.Common
	common.Register(fs)
	name := fs.String("name", "", "ledger program name (default: program file base name)")
	runs := fs.Int("runs", perf.DefaultRuns, "timed wall-clock passes (median-of-N)")
	note := fs.String("note", "", "free-form note carried in the record")
	ledger := fs.String("ledger", "perf.lperf", "ledger file to append to / gate against")
	jsonOut := fs.Bool("json", false, "print the record (measure) or verdict (gate) as JSON")
	threshold := fs.Float64("wall-threshold", perf.DefaultWallThreshold, "gate: allowed fractional wall-time slowdown beyond baseline spread")
	skipWall := fs.Bool("skip-wall", false, "gate: compare only the deterministic tier")
	cli.Fail(fs.Parse(args))
	cli.HandleVersion()
	if fs.NArg() != 1 {
		cli.Usage(sub + " [-model m] [-mode m] [-name p] [-runs n] [-ledger f] prog.s")
	}

	src, err := os.ReadFile(fs.Arg(0))
	cli.Fail(err)
	progName := *name
	if progName == "" {
		progName = strings.TrimSuffix(filepath.Base(fs.Arg(0)), filepath.Ext(fs.Arg(0)))
	}
	mc, mode := common.Load()
	mopt := perf.MeasureOptions{Runs: *runs, MaxSteps: common.Max, Note: *note}
	var cache *gosim.Cache
	if mode == sim.Generated {
		// The generated tier's wall passes must time the specialized
		// runner itself; the counter pass keeps the observer-bearing
		// classic engine, and step parity between the two is checked by
		// Measure as always.
		cache = gosim.NewCache(common.GenCache)
		mopt.WallRunner = generatedRunner(mc, string(src), cache)
	}
	rec, err := perf.Measure(mc, mode, progName, string(src), mopt)
	if cache != nil {
		err = errors.Join(err, cache.Close())
	}
	cli.Fail(err)

	switch sub {
	case "measure":
		if *jsonOut {
			cli.Fail(rec.WriteJSON(os.Stdout))
		} else {
			cli.Fail(rec.WriteText(os.Stdout))
		}
	case "record":
		n, err := perf.AppendUnique(*ledger, rec)
		cli.Fail(err)
		if n == 0 {
			fmt.Printf("%s: record %.12s already in %s\n", cli.Tool, rec.ID, *ledger)
		} else {
			fmt.Printf("%s: appended %.12s (%s) to %s\n", cli.Tool, rec.ID, rec.Key(), *ledger)
		}
	case "gate":
		l, err := perf.Load(*ledger)
		cli.Fail(err)
		base, err := l.Baseline(rec.Key())
		if err != nil {
			cli.Fail(fmt.Errorf("ledger %s: %w (run `%s record` first)", *ledger, err, cli.Tool))
		}
		res := perf.Gate(base, rec, perf.GateOptions{WallThreshold: *threshold, SkipWall: *skipWall})
		emitGate(res, *jsonOut)
	}
}

// generatedRunner compiles prog for the generated-code tier and returns
// a WallRunner executing it on a resident native runner from cache.
// Compile failures and runs no runner can serve are errors rather than
// silently measured on another engine: a "generated" ledger record that
// actually timed the compiled engine would poison every later gate.
func generatedRunner(mc *core.Machine, src string, cache *gosim.Cache) func(uint64) (uint64, int64, error) {
	a, err := mc.NewAssembler()
	cli.Fail(err)
	prog, err := a.Assemble(src)
	cli.Fail(err)
	p, err := gosim.Compile(mc, prog)
	if err != nil {
		cli.Fail(fmt.Errorf("generated mode: %w", err))
	}
	eng := gosim.NewEngine(p, cache, gosim.Options{})
	return func(maxSteps uint64) (uint64, int64, error) {
		res, err := eng.Run(maxSteps)
		if err != nil {
			return 0, 0, fmt.Errorf("generated mode: %w", err)
		}
		return res.Steps, res.RunNs, nil
	}
}

// runDiff compares the last two ledger records of a key.
func runDiff(args []string) {
	fs := newFlagSet("diff")
	model := fs.String("model", "simple16", "ledger model name")
	name := fs.String("name", "", "ledger program name (required)")
	engine := fs.String("engine", "compiled", "ledger engine name")
	ledger := fs.String("ledger", "perf.lperf", "ledger file to read")
	jsonOut := fs.Bool("json", false, "print the verdict as JSON")
	threshold := fs.Float64("wall-threshold", perf.DefaultWallThreshold, "allowed fractional wall-time slowdown beyond baseline spread")
	skipWall := fs.Bool("skip-wall", false, "compare only the deterministic tier")
	cli.Fail(fs.Parse(args))
	cli.HandleVersion()
	if *name == "" || fs.NArg() != 0 {
		cli.Usage("diff -ledger f -name p [-model m] [-engine e]")
	}
	l, err := perf.Load(*ledger)
	cli.Fail(err)
	recs := l.Query(perf.Key{Model: *model, Program: *name, Engine: *engine})
	if len(recs) < 2 {
		cli.Fail(fmt.Errorf("ledger %s has %d record(s) for %s/%s/%s; diff needs two",
			*ledger, len(recs), *model, *name, *engine))
	}
	res := perf.Gate(recs[len(recs)-2], recs[len(recs)-1], perf.GateOptions{WallThreshold: *threshold, SkipWall: *skipWall})
	emitGate(res, *jsonOut)
}

// emitGate prints a gate verdict and exits 1 when it failed.
func emitGate(res *perf.GateResult, asJSON bool) {
	if asJSON {
		enc := jsonEncoder(os.Stdout)
		cli.Fail(enc.Encode(res))
	} else {
		cli.Fail(res.WriteText(os.Stdout))
	}
	if !res.Pass {
		os.Exit(1)
	}
}

func runTrend(args []string) {
	fs := newFlagSet("trend")
	model := fs.String("model", "", "filter: model name")
	name := fs.String("name", "", "filter: program name")
	engine := fs.String("engine", "", "filter: engine name")
	ledger := fs.String("ledger", "perf.lperf", "ledger file to read")
	jsonOut := fs.Bool("json", false, "print the trend report as JSON")
	htmlOut := fs.String("html", "", "write the trend report as a self-contained HTML page to this file")
	cli.Fail(fs.Parse(args))
	cli.HandleVersion()
	if fs.NArg() != 0 {
		cli.Usage("trend -ledger f [-model m] [-name p] [-engine e] [-json] [-html out.html]")
	}
	l, err := perf.Load(*ledger)
	cli.Fail(err)
	rep := l.Trend(perf.Key{Model: *model, Program: *name, Engine: *engine})
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		cli.Fail(err)
		cli.Fail(rep.WriteHTML(f))
		cli.Fail(f.Close())
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", cli.Tool, *htmlOut)
	}
	if *jsonOut {
		cli.Fail(rep.WriteJSON(os.Stdout))
	} else if *htmlOut == "" {
		cli.Fail(rep.WriteText(os.Stdout))
	}
}

func runBenchEntry(args []string) {
	fs := newFlagSet("bench-entry")
	model := fs.String("model", "", "filter: model name")
	name := fs.String("name", "", "filter: program name")
	engine := fs.String("engine", "", "filter: engine name")
	ledger := fs.String("ledger", "perf.lperf", "ledger file to read")
	key := fs.String("key", "", "entry key to write, e.g. pr9_codegen (required with -into)")
	into := fs.String("into", "", "BENCH_*.json file to splice the entry into (omit to print it)")
	note := fs.String("note", "machine-written by lisa-perf bench-entry", "entry note")
	cli.Fail(fs.Parse(args))
	cli.HandleVersion()
	if fs.NArg() != 0 || (*into != "" && *key == "") {
		cli.Usage("bench-entry -ledger f [-model m] [-name p] [-engine e] [-key pr_x -into BENCH_foo.json]")
	}
	l, err := perf.Load(*ledger)
	cli.Fail(err)
	e, err := l.BenchEntry(*note, perf.Key{Model: *model, Program: *name, Engine: *engine})
	cli.Fail(err)
	if *into == "" {
		enc := jsonEncoder(os.Stdout)
		cli.Fail(enc.Encode(e))
		return
	}
	cli.Fail(perf.AddToBenchFile(*into, *key, e))
	fmt.Fprintf(os.Stderr, "%s: wrote entry %q into %s\n", cli.Tool, *key, *into)
}

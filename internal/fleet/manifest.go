package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"golisa/internal/core"
	"golisa/internal/otrace"
	"golisa/internal/sim"
)

// Manifest describes a batch of jobs plus batch-level defaults. It is the
// on-disk format of `lisa-sim -jobs manifest.json` and the request body of
// the debug server's /batch endpoint.
type Manifest struct {
	Model     string `json:"model,omitempty"`   // builtin model name (defaults to the host's model)
	Mode      string `json:"mode,omitempty"`    // interpretive | compiled | generated (see sim.ParseMode)
	Workers   int    `json:"workers,omitempty"` // 0 = GOMAXPROCS
	Max       uint64 `json:"max,omitempty"`     // default per-job step cap
	Analyze   bool   `json:"analyze,omitempty"`
	Cover     bool   `json:"cover,omitempty"`      // collect model coverage per job, union into the summary
	Perf      bool   `json:"perf,omitempty"`       // emit perf-ledger records into the summary
	MaxPrints int    `json:"max_prints,omitempty"` // per-job print-line cap (0 = default, <0 unlimited)
	Jobs      []Job  `json:"jobs"`
}

// LoadManifest reads a batch description from path. A directory becomes one
// job per *.s file (sorted by name); a file is parsed as a JSON Manifest,
// with each job's Program path resolved relative to the manifest's
// directory and read into Source.
func LoadManifest(path string) (*Manifest, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return loadDir(path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	dir := filepath.Dir(path)
	for i := range man.Jobs {
		job := &man.Jobs[i]
		if job.Source != "" {
			continue
		}
		if job.Program == "" {
			return nil, fmt.Errorf("%s: job %d: needs either source or program", path, i)
		}
		prog := job.Program
		if !filepath.IsAbs(prog) {
			prog = filepath.Join(dir, prog)
		}
		src, err := os.ReadFile(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: job %d: %v", path, i, err)
		}
		job.Source = string(src)
		if job.Name == "" {
			job.Name = jobName(job.Program)
		}
	}
	return &man, nil
}

// loadDir builds a manifest from every *.s file in dir, one job per file,
// in sorted name order.
func loadDir(dir string) (*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".s") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no .s files", dir)
	}
	sort.Strings(names)
	man := &Manifest{}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		man.Jobs = append(man.Jobs, Job{Name: jobName(name), Source: string(src)})
	}
	return man, nil
}

func jobName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// Service runs manifests against a fixed machine, for hosts like the
// debug server's /batch endpoint. The zero values of Workers, MaxSteps
// and MaxPrints defer to each manifest (and then to the package
// defaults). A Service may serve concurrent batches; each builds its own
// artifact, and the shared Telemetry sink (if any) must be safe for
// concurrent batches, as *Metrics is.
type Service struct {
	Machine   *core.Machine
	Mode      sim.Mode
	Workers   int
	MaxSteps  uint64
	MaxPrints int
	// Telemetry, when non-nil, observes every batch the service runs —
	// typically one *Metrics collector exposed at /batch/metrics.
	// Per-request sinks (a /batch/stream response) are passed to RunWith
	// and fanned out alongside it.
	Telemetry Telemetry
}

// Run executes a manifest against the service's machine. For safety in
// networked hosts, jobs must carry inline Source — Program file paths are
// rejected rather than read from the host's filesystem. The manifest may
// override the simulation mode but not the model.
func (sv *Service) Run(man *Manifest) (*Summary, error) {
	return sv.RunWith(man, nil)
}

// RunWith is Run with an additional per-request telemetry sink (say, an
// NDJSON Streamer for one HTTP response) fanned out with the service's
// own.
func (sv *Service) RunWith(man *Manifest, tele Telemetry) (*Summary, error) {
	return sv.RunTraced(man, tele, nil)
}

// RunTraced is RunWith with an explicit trace context, so a host that
// already minted one (the debug server joining a request's traceparent
// header) shares its TraceID with the batch's spans, stream, metrics and
// perf records. A nil trace makes the batch mint its own.
func (sv *Service) RunTraced(man *Manifest, tele Telemetry, tr *otrace.Trace) (*Summary, error) {
	if man == nil || len(man.Jobs) == 0 {
		return nil, fmt.Errorf("batch: no jobs")
	}
	if man.Model != "" && man.Model != sv.Machine.Model.Name {
		return nil, fmt.Errorf("batch: model %q not served here (running %q)", man.Model, sv.Machine.Model.Name)
	}
	for i, job := range man.Jobs {
		if job.Source == "" {
			if job.Program != "" {
				return nil, fmt.Errorf("batch: job %d: program paths are not allowed here, inline the source", i)
			}
			return nil, fmt.Errorf("batch: job %d: missing source", i)
		}
	}
	mode := sv.Mode
	if man.Mode != "" {
		var err error
		if mode, err = sim.ParseMode(man.Mode); err != nil {
			return nil, fmt.Errorf("batch: %v", err)
		}
	}
	opt := Options{
		Workers:   man.Workers,
		MaxSteps:  man.Max,
		Analyze:   man.Analyze,
		Cover:     man.Cover,
		Perf:      man.Perf,
		MaxPrints: man.MaxPrints,
		Telemetry: TeleFanout(sv.Telemetry, tele),
		Trace:     tr,
	}
	if opt.Workers <= 0 {
		opt.Workers = sv.Workers
	}
	if opt.MaxSteps == 0 {
		opt.MaxSteps = sv.MaxSteps
	}
	if opt.MaxPrints == 0 {
		opt.MaxPrints = sv.MaxPrints
	}
	return Run(sv.Machine, mode, man.Jobs, opt)
}

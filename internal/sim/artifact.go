package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"golisa/internal/behavior"
	"golisa/internal/bitvec"
	"golisa/internal/coding"
	"golisa/internal/model"
)

// Artifact is the immutable, shareable half of a simulator: the parsed
// model, the decoder over its coding tables, pre-bound static instances,
// a pre-warmed decode cache, and (outside interpretive mode) the
// pre-compiled behavior code. It is built once — NewArtifact plus
// optional Prewarm calls — and then shared by any number of simulators
// created with NewFromArtifact, which allocate only the cheap per-run
// state (machine state, pipelines, time wheel, profile).
//
// This extends the paper's compiled-simulation principle (decode and bind
// once, re-execute many times) from "once per distinct word in one run" to
// "once per model, across a whole fleet of runs": M jobs on N worker
// goroutines pay the decode/compile cost exactly once, and the acceptance
// counters (Profile.Decodes, Profile.Compiles) prove it.
//
// Build and use are two strict phases. All building (NewArtifact, Prewarm)
// must happen on one goroutine; the first NewFromArtifact freezes the
// artifact, after which the shared structures are never written again and
// concurrent simulators are race-free.
type Artifact struct {
	M *model.Model

	mode   Mode
	dec    *coding.Decoder
	static map[*model.Operation]*model.Instance
	decode map[decodeKey]*model.Instance
	shared *behavior.CompiledSet

	decodes    uint64 // decode operations performed while pre-warming
	frozen     atomic.Bool
	freezeOnce sync.Once
}

// NewArtifact compiles the shareable simulator state for the model in the
// given mode: the decoder, a static (unbound) instance for every operation
// whose variant resolves without bindings, and — outside interpretive
// mode — the compiled behaviors and activation expressions of
// those instances. Call Prewarm to also pre-decode known instruction words, then
// NewFromArtifact for each run.
func NewArtifact(m *model.Model, mode Mode) *Artifact {
	a := &Artifact{
		M:      m,
		mode:   mode,
		dec:    coding.NewDecoder(m),
		static: map[*model.Operation]*model.Instance{},
		decode: map[decodeKey]*model.Instance{},
	}
	if mode != Interpretive {
		a.shared = behavior.NewCompiledSet(m)
	}
	// Pre-bind the operations reachable without operand bindings (main,
	// reset, stage controllers, ...). Operations whose variants are all
	// guarded on group members cannot resolve unbound and keep using the
	// per-simulator lazy path.
	for _, op := range m.OpList {
		in := model.NewInstance(op)
		if err := in.ResolveVariant(); err != nil {
			continue
		}
		a.static[op] = in
		if a.shared != nil {
			a.shared.Precompile(in)
		}
	}
	return a
}

// Mode returns the simulation mode the artifact was compiled for.
func (a *Artifact) Mode() Mode { return a.mode }

// Prewarm decodes each word through every coding root of the model and
// caches the bound and pre-compiled instance trees.
// Duplicate words cost nothing; words that do not decode are skipped — a
// job that actually executes such a word reports the error at run time,
// exactly as with a cold cache. Interpretive-mode artifacts ignore Prewarm
// (that mode re-decodes every execution by definition).
//
// Prewarm must complete before the first NewFromArtifact; afterwards it
// returns an error instead of mutating shared state.
func (a *Artifact) Prewarm(words []uint64) error {
	if a.frozen.Load() {
		return fmt.Errorf("sim: Prewarm on frozen artifact (already in use by a simulator)")
	}
	if a.mode == Interpretive {
		return nil
	}
	// Storage resets to zero, so pipelined models decode the all-zeros
	// word from the instruction register before the first fetch lands;
	// include it so fully pre-warmed jobs really perform zero decodes.
	words = append([]uint64{0}, words...)
	for _, op := range a.M.OpList {
		if !op.IsCodingRoot || op.RootResource == nil {
			continue
		}
		width := op.RootResource.Width
		for _, raw := range words {
			word := bitvec.New(raw, width)
			key := decodeKey{op, word.Uint()}
			if _, ok := a.decode[key]; ok {
				continue
			}
			in, err := a.dec.DecodeRoot(op, word)
			if err != nil {
				continue
			}
			a.decodes++
			a.decode[key] = in
			if a.shared != nil {
				a.shared.Precompile(in)
			}
		}
	}
	return nil
}

// Decodes returns the number of decode operations performed while
// pre-warming; per-job decode counts (Profile.Decodes) stay at zero when
// every executed word was pre-warmed.
func (a *Artifact) Decodes() uint64 { return a.decodes }

// Compiles returns the number of behaviors and activation
// expressions pre-compiled into the artifact (zero in interpretive
// mode).
func (a *Artifact) Compiles() uint64 {
	if a.shared == nil {
		return 0
	}
	return a.shared.Compiles()
}

// CachedWords returns the number of pre-warmed decode-cache entries.
func (a *Artifact) CachedWords() int { return len(a.decode) }

// freeze ends the build phase: the shared maps become read-only. Safe to call from concurrent
// NewFromArtifact calls; the build phase itself (NewArtifact, Prewarm)
// still belongs to a single goroutine.
func (a *Artifact) freeze() {
	a.freezeOnce.Do(func() {
		a.frozen.Store(true)
		if a.shared != nil {
			a.shared.Freeze()
		}
	})
}

// NewFromArtifact creates a simulator sharing the artifact's decoder,
// static instances, pre-warmed decode cache and pre-compiled code.
// Only per-run state is allocated, so the call is cheap enough for
// per-job construction in a batch fleet. The first call freezes the
// artifact; simulators created from one artifact may then run concurrently
// on separate goroutines. Words missing from the pre-warmed cache are
// decoded into a simulator-private overlay, never into the shared map.
func NewFromArtifact(a *Artifact) *Simulator {
	a.freeze()
	return newSimulator(a.M, a.mode, a)
}

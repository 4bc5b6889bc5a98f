package cache

import (
	"sync"

	"bristleblocks/internal/cif"
	"bristleblocks/internal/core"
	"bristleblocks/internal/trace"
)

// Render turns a compiled chip into the storable Result: CIF at the spec's
// physical lambda plus the sticks, text, block, and logical
// representations, and the per-pass times of the chip's phase record (the
// readings its pass spans carry). The mask hierarchy itself is not
// stored — CIF is the canonical serialized form of the Layout
// representation; the sticks diagram is rendered at the invariant
// harness's 16λ scale so daemon responses and differential baselines are
// comparable bytes. The CIF is stored as an exact-length copy: cif.Append
// reserves from an estimate, and a cached entry should hold (and be
// charged for) only its bytes. It is appended into a pooled scratch
// buffer, so the copy is the only CIF allocation a render makes.
func Render(chip *core.Chip) (*Result, error) {
	lambda := chip.Spec.LambdaCentimicrons
	if lambda <= 0 {
		lambda = cif.DefaultLambdaCentimicrons
	}
	bp := cifBufs.Get().(*[]byte)
	defer cifBufs.Put(bp)
	buf, err := cif.Append((*bp)[:0], chip.Mask, lambda)
	*bp = buf
	if err != nil {
		return nil, err
	}
	text := make([]byte, len(buf)) // not bytes.Clone, which rounds cap up
	copy(text, buf)
	ph := &chip.Phases
	sticks := ""
	if chip.Sticks != nil {
		sticks = chip.Sticks.Render(16)
	}
	return &Result{
		Chip:   chip.Spec.Name,
		Sticks: sticks,
		Stats:  chip.Stats,
		TimesUS: TimesUS{
			Core:    ph[trace.PhaseCore].Dur.Microseconds(),
			Control: ph[trace.PhaseControl].Dur.Microseconds(),
			Pads:    ph[trace.PhasePads].Dur.Microseconds(),
			Total:   ph[trace.PhaseTotal].Dur.Microseconds(),
		},
		CIF:     text,
		Text:    chip.Text,
		Block:   chip.Block,
		Logical: chip.Logical,
	}, nil
}

// cifBufs recycles the scratch buffers Render appends CIF into; nothing
// keeps one past the call, which copies out the exact bytes.
var cifBufs = sync.Pool{New: func() any { return new([]byte) }}

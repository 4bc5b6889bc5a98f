package cache

import (
	"bristleblocks/internal/cif"
	"bristleblocks/internal/core"
)

// Render turns a compiled chip into the storable Result: CIF at the spec's
// physical lambda plus the sticks, text, block, and logical
// representations. The mask hierarchy itself is not stored — CIF is the
// canonical serialized form of the Layout representation; the sticks
// diagram is rendered at the invariant harness's 16λ scale so daemon
// responses and differential baselines are comparable bytes. The CIF is
// stored as an exact-length copy: cif.Append reserves from an estimate,
// and a cached entry should hold (and be charged for) only its bytes.
func Render(chip *core.Chip) (*Result, error) {
	lambda := chip.Spec.LambdaCentimicrons
	if lambda <= 0 {
		lambda = cif.DefaultLambdaCentimicrons
	}
	buf, err := cif.Append(nil, chip.Mask, lambda)
	if err != nil {
		return nil, err
	}
	text := make([]byte, len(buf))
	copy(text, buf)
	sticks := ""
	if chip.Sticks != nil {
		sticks = chip.Sticks.Render(16)
	}
	return &Result{
		Chip:   chip.Spec.Name,
		Sticks: sticks,
		Stats:  chip.Stats,
		TimesUS: TimesUS{
			Core:    chip.Times.Core.Microseconds(),
			Control: chip.Times.Control.Microseconds(),
			Pads:    chip.Times.Pads.Microseconds(),
			Total:   chip.Times.Total.Microseconds(),
		},
		CIF:     text,
		Text:    chip.Text,
		Block:   chip.Block,
		Logical: chip.Logical,
	}, nil
}

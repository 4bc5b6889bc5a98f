// Quickstart: compile a small 4-bit chip from a one-page description,
// print its statistics and block diagram, and emit the CIF mask set.
package main

import (
	"fmt"
	"log"
	"os"

	"bristleblocks"
	"bristleblocks/internal/trace"
)

const description = `
chip quickstart
lambda 250

microcode width 8
field OP 0 4
field SEL 4 2

data width 4
bus A 0 -1
bus B 0 -1

element io  ioport    io="OP=1" class=io
element r   registers count=2 ld="OP=2 & SEL={i}" rd="OP=3 & SEL={i}"
element alu alu       lda="OP=4" ldb="OP=5" rd="OP=6" op=add
`

func main() {
	spec, err := bristleblocks.ParseSpec(description)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	chip, err := bristleblocks.Compile(spec, nil)
	if err != nil {
		log.Fatalf("compile: %v", err)
	}

	ph := &chip.Phases
	fmt.Printf("compiled %s in %v (core %v, control %v, pads %v)\n", spec.Name,
		ph[trace.PhaseTotal].Dur, ph[trace.PhaseCore].Dur, ph[trace.PhaseControl].Dur, ph[trace.PhasePads].Dur)
	fmt.Printf("  core columns: %d   pitch: %.1fλ\n", chip.Stats.Columns, float64(chip.Stats.Pitch)/4)
	fmt.Printf("  transistors:  %d   pads: %d   PLA terms: %d\n",
		chip.Stats.Transistors, chip.Stats.PadCount, chip.Stats.PLATerms)
	fmt.Printf("  chip area:    %.0f square lambda\n\n", bristleblocks.AreaLambda(chip))

	fmt.Println("Block diagram (physical format):")
	fmt.Println(chip.Block)
	fmt.Println("Logical format:")
	fmt.Println(chip.Logical)

	if vs := bristleblocks.CheckDRC(chip); len(vs) > 0 {
		log.Fatalf("DRC violations: %v", vs)
	}
	fmt.Println("DRC: clean")

	f, err := os.Create("quickstart.cif")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := bristleblocks.WriteCIF(f, chip); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mask set written to quickstart.cif")
}

// Package desc implements the chip description language: the "single page,
// high level description of the integrated circuit" that is the compiler's
// input. A description has the paper's three sections — the microcode
// format, the data width and bus list, and the core element list — plus
// conditional-assembly globals.
//
// Example:
//
//	chip counter
//	lambda 250
//
//	microcode width 8
//	field OP 0 4
//	field SEL 4 2
//	field EN 6 1
//
//	data width 8
//	bus A 0 -1
//	bus B 0 -1
//
//	global PROTOTYPE true
//
//	element io   ioport    io="OP=1" class=io
//	element r    registers count=2 ld="OP=2 & SEL={i}" rd="OP=3 & SEL={i}"
//	element alu  alu       lda="OP=4" ldb="OP=5" rd="OP=6" op=add
//	element dbg  registers if=PROTOTYPE ld="OP=11" rd="OP=12"
package desc

import (
	"fmt"
	"strconv"
	"strings"

	"bristleblocks/internal/bus"
	"bristleblocks/internal/cdl"
	"bristleblocks/internal/core"
	"bristleblocks/internal/decoder"
)

// Parse reads a chip description.
func Parse(src string) (*core.Spec, error) {
	spec := &core.Spec{
		Microcode: &decoder.Format{},
		Globals:   make(map[string]bool),
	}
	sawMicro, sawData := false, false
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 && !inQuotes(line, i) {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		toks, err := cdl.SplitQuoted(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		if len(toks) == 0 {
			// e.g. a line holding only an empty quoted string
			return nil, fmt.Errorf("line %d: no directive", lineNo+1)
		}
		if err := applyLine(spec, toks, &sawMicro, &sawData); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("description has no 'chip' line")
	}
	if !sawMicro {
		return nil, fmt.Errorf("description has no microcode section")
	}
	if !sawData {
		return nil, fmt.Errorf("description has no data width")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func applyLine(spec *core.Spec, toks []string, sawMicro, sawData *bool) error {
	switch toks[0] {
	case "chip":
		if len(toks) != 2 {
			return fmt.Errorf("chip wants a name")
		}
		if err := ident("chip name", toks[1]); err != nil {
			return err
		}
		spec.Name = toks[1]
	case "lambda":
		n, err := atoiTok(toks, 1)
		if err != nil {
			return err
		}
		spec.LambdaCentimicrons = n
	case "microcode":
		if len(toks) != 3 || toks[1] != "width" {
			return fmt.Errorf("microcode wants 'width N'")
		}
		n, err := strconv.Atoi(toks[2])
		if err != nil {
			return fmt.Errorf("bad microcode width %q", toks[2])
		}
		spec.Microcode.Width = n
		*sawMicro = true
	case "field":
		if len(toks) != 4 {
			return fmt.Errorf("field wants NAME lo width")
		}
		if err := ident("field name", toks[1]); err != nil {
			return err
		}
		lo, err1 := strconv.Atoi(toks[2])
		w, err2 := strconv.Atoi(toks[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad field numbers in %v", toks)
		}
		spec.Microcode.Fields = append(spec.Microcode.Fields,
			decoder.Field{Name: toks[1], Lo: lo, Width: w})
	case "data":
		if len(toks) != 3 || toks[1] != "width" {
			return fmt.Errorf("data wants 'width N'")
		}
		n, err := strconv.Atoi(toks[2])
		if err != nil {
			return fmt.Errorf("bad data width %q", toks[2])
		}
		spec.DataWidth = n
		*sawData = true
	case "bus":
		if len(toks) != 4 {
			return fmt.Errorf("bus wants NAME from to")
		}
		if err := ident("bus name", toks[1]); err != nil {
			return err
		}
		from, err1 := strconv.Atoi(toks[2])
		to, err2 := strconv.Atoi(toks[3])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad bus range in %v", toks)
		}
		spec.Buses = append(spec.Buses, bus.Spec{Name: toks[1], From: from, To: to})
	case "pads":
		if len(toks) != 2 || (toks[1] != "even" && toks[1] != "pulled") {
			return fmt.Errorf("pads wants 'even' or 'pulled'")
		}
		spec.EvenPads = toks[1] == "even"
	case "global":
		if len(toks) != 3 {
			return fmt.Errorf("global wants NAME true|false")
		}
		if err := ident("global name", toks[1]); err != nil {
			return err
		}
		v, err := strconv.ParseBool(toks[2])
		if err != nil {
			return fmt.Errorf("bad global value %q", toks[2])
		}
		spec.Globals[toks[1]] = v
	case "element":
		if len(toks) < 3 {
			return fmt.Errorf("element wants NAME KIND [key=value...]")
		}
		if err := ident("element name", toks[1]); err != nil {
			return err
		}
		if err := ident("element kind", toks[2]); err != nil {
			return err
		}
		e := core.ElementSpec{Name: toks[1], Kind: toks[2], Params: make(map[string]string)}
		for _, kv := range toks[3:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("element parameter %q is not key=value", kv)
			}
			if err := ident("parameter key", k); err != nil {
				return err
			}
			if k == "if" {
				if err := ident("if condition", v); err != nil {
					return err
				}
				e.OnlyIf = v
			} else {
				e.Params[k] = v
			}
		}
		spec.Elements = append(spec.Elements, e)
	default:
		return fmt.Errorf("unknown directive %q", toks[0])
	}
	return nil
}

// ident rejects names that would not survive a Format -> Parse round trip:
// cdl.SplitQuoted strips quotes and splits on whitespace, and Parse strips
// unquoted comments, so identifiers must be non-empty words free of
// whitespace and comment characters.
func ident(what, s string) error {
	if s == "" || strings.ContainsAny(s, " \t#;") {
		return fmt.Errorf("%s %q must be a non-empty word", what, s)
	}
	return nil
}

func atoiTok(toks []string, i int) (int, error) {
	if i >= len(toks) {
		return 0, fmt.Errorf("%s wants a number", toks[0])
	}
	n, err := strconv.Atoi(toks[i])
	if err != nil {
		return 0, fmt.Errorf("bad number %q", toks[i])
	}
	return n, nil
}

// inQuotes reports whether position i in line falls inside a quoted span.
func inQuotes(line string, i int) bool {
	n := 0
	for _, r := range line[:i] {
		if r == '"' {
			n++
		}
	}
	return n%2 == 1
}

// Format renders a Spec back into description-language text (round-trip
// support and a way to save programmatically built chips).
func Format(spec *core.Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chip %s\n", spec.Name)
	if spec.LambdaCentimicrons > 0 {
		fmt.Fprintf(&sb, "lambda %d\n", spec.LambdaCentimicrons)
	}
	fmt.Fprintf(&sb, "\nmicrocode width %d\n", spec.Microcode.Width)
	for _, f := range spec.Microcode.Fields {
		fmt.Fprintf(&sb, "field %s %d %d\n", f.Name, f.Lo, f.Width)
	}
	fmt.Fprintf(&sb, "\ndata width %d\n", spec.DataWidth)
	for _, b := range spec.Buses {
		fmt.Fprintf(&sb, "bus %s %d %d\n", b.Name, b.From, b.To)
	}
	if spec.EvenPads {
		sb.WriteString("pads even\n")
	}
	if len(spec.Globals) > 0 {
		sb.WriteByte('\n')
		var names []string
		for n := range spec.Globals {
			names = append(names, n)
		}
		// Deterministic output.
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				if names[j] < names[i] {
					names[i], names[j] = names[j], names[i]
				}
			}
		}
		for _, n := range names {
			fmt.Fprintf(&sb, "global %s %v\n", n, spec.Globals[n])
		}
	}
	sb.WriteByte('\n')
	for _, e := range spec.Elements {
		fmt.Fprintf(&sb, "element %s %s", e.Name, e.Kind)
		if e.OnlyIf != "" {
			fmt.Fprintf(&sb, " if=%s", e.OnlyIf)
		}
		var keys []string
		for k := range e.Params {
			keys = append(keys, k)
		}
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if keys[j] < keys[i] {
					keys[i], keys[j] = keys[j], keys[i]
				}
			}
		}
		for _, k := range keys {
			v := e.Params[k]
			if strings.ContainsAny(v, " \t#;") {
				// Plain quotes, not %q: SplitQuoted has no escape sequences,
				// so backslashes must pass through literally. Quotes also
				// shield comment characters from the line scanner.
				fmt.Fprintf(&sb, " %s=\"%s\"", k, v)
			} else {
				fmt.Fprintf(&sb, " %s=%s", k, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

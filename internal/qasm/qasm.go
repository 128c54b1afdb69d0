// Package qasm parses the textual assembly format for simulated-machine
// programs, so workloads can be written, recorded and replayed without
// writing Go. The format maps 1:1 onto the isa.Builder API plus a few
// synchronization pseudo-instructions.
//
// Example:
//
//	.name mycounter
//	.threads 4
//	.alloc counter 1        ; one shared word, symbol "counter"
//	.alloc bar 2            ; barrier block
//
//	        li   r3, @counter
//	        li   r4, 0
//	        li   r5, 1000
//	        li   r6, 1
//	loop:   fadd r7, [r3+0], r6
//	        addi r4, r4, 1
//	        bne  r4, r5, loop
//	        li   r9, @bar
//	        pbarrier r9
//	        halt
//
// Grammar notes:
//
//   - one statement per line; ';' starts a comment; labels end with ':'
//     and may share a line with an instruction;
//   - directives: .name NAME, .threads N, .alloc SYMBOL WORDS,
//     .init SYMBOL WORDOFF VALUE (repeatable; WORDOFF lies inside the
//     symbol's allocation);
//   - operands: registers r0..r31, integer immediates (decimal or 0x...),
//     @SYMBOL (the symbol's address), memory refs [rN+OFF] / [rN-OFF];
//     byte-granular accesses via lb/lbu/sb take unaligned addresses;
//   - pseudo-instructions: pbarrier rN (sense-reversing futex barrier at
//     [rN]), plock rN / punlock rN (three-state futex mutex at [rN]) —
//     these expand to the same idioms the built-in workloads use and
//     clobber r10..r14 and r20..r27.
package qasm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Parse assembles source text into a runnable program.
func Parse(src string) (*isa.Program, error) {
	p := &parser{
		name:    "qasm",
		threads: 4,
		symbols: map[string]uint64{},
	}
	if err := p.scan(src); err != nil {
		return nil, err
	}
	return p.build()
}

type allocDirective struct {
	symbol string
	words  uint64
}

type initDirective struct {
	symbol  string
	wordOff uint64
	value   uint64
}

type stmt struct {
	line   int
	label  string
	mnem   string
	args   []string
	rawtxt string
}

type parser struct {
	name    string
	threads int
	allocs  []allocDirective
	inits   []initDirective
	stmts   []stmt
	symbols map[string]uint64

	pseudoSeq int
}

func (p *parser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("qasm:%d: %s", line, fmt.Sprintf(format, args...))
}

// scan splits the source into directives and instruction statements.
func (p *parser) scan(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := raw
		if idx := strings.IndexByte(text, ';'); idx >= 0 {
			text = text[:idx]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			if err := p.directive(line, text); err != nil {
				return err
			}
			continue
		}
		label := ""
		if idx := strings.IndexByte(text, ':'); idx >= 0 {
			label = strings.TrimSpace(text[:idx])
			text = strings.TrimSpace(text[idx+1:])
			if label == "" {
				return p.errf(line, "empty label")
			}
		}
		if text == "" {
			if label != "" {
				p.stmts = append(p.stmts, stmt{line: line, label: label})
			}
			continue
		}
		fields := strings.Fields(text)
		mnem := strings.ToLower(fields[0])
		argText := strings.TrimSpace(text[len(fields[0]):])
		var args []string
		if argText != "" {
			for _, a := range strings.Split(argText, ",") {
				args = append(args, strings.TrimSpace(a))
			}
		}
		p.stmts = append(p.stmts, stmt{line: line, label: label, mnem: mnem, args: args, rawtxt: text})
	}
	return nil
}

func (p *parser) directive(line int, text string) error {
	fields := strings.Fields(text)
	switch fields[0] {
	case ".name":
		if len(fields) != 2 {
			return p.errf(line, ".name needs exactly one argument")
		}
		p.name = fields[1]
	case ".threads":
		if len(fields) != 2 {
			return p.errf(line, ".threads needs exactly one argument")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 || n > 64 {
			return p.errf(line, "bad thread count %q", fields[1])
		}
		p.threads = n
	case ".alloc":
		if len(fields) != 3 {
			return p.errf(line, ".alloc needs SYMBOL WORDS")
		}
		words, err := strconv.ParseUint(fields[2], 0, 32)
		if err != nil || words == 0 {
			return p.errf(line, "bad word count %q", fields[2])
		}
		if _, dup := p.symbols[fields[1]]; dup {
			return p.errf(line, "duplicate symbol %q", fields[1])
		}
		p.symbols[fields[1]] = 0 // address assigned at build
		p.allocs = append(p.allocs, allocDirective{symbol: fields[1], words: words})
	case ".init":
		if len(fields) != 4 {
			return p.errf(line, ".init needs SYMBOL WORDOFF VALUE")
		}
		off, err := strconv.ParseUint(fields[2], 0, 32)
		if err != nil {
			return p.errf(line, "bad word offset %q", fields[2])
		}
		val, err := strconv.ParseUint(fields[3], 0, 64)
		if err != nil {
			return p.errf(line, "bad value %q", fields[3])
		}
		p.inits = append(p.inits, initDirective{symbol: fields[1], wordOff: off, value: val})
	default:
		return p.errf(line, "unknown directive %s", fields[0])
	}
	return nil
}

// build lays out data, then assembles every statement. Builder panics
// (duplicate or undefined labels) are converted to errors: in this
// package the program text is user input, not a static artifact.
func (p *parser) build() (prog *isa.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("qasm: %v", r)
		}
	}()
	return p.buildChecked()
}

func (p *parser) buildChecked() (*isa.Program, error) {
	var lay mem.Layout
	words := make(map[string]uint64, len(p.allocs))
	for _, a := range p.allocs {
		p.symbols[a.symbol] = lay.AllocWords(a.words)
		words[a.symbol] = a.words
	}
	for _, in := range p.inits {
		n, ok := words[in.symbol]
		if !ok {
			return nil, fmt.Errorf("qasm: .init of unknown symbol %q", in.symbol)
		}
		if in.wordOff >= n {
			return nil, fmt.Errorf("qasm: .init offset %d outside symbol %q of %d words", in.wordOff, in.symbol, n)
		}
	}

	b := isa.NewBuilder(p.name)
	for _, s := range p.stmts {
		if s.label != "" {
			b.Label(s.label)
		}
		if s.mnem == "" {
			continue
		}
		if err := p.emit(b, s); err != nil {
			return nil, err
		}
	}

	inits := p.inits
	symbols := p.symbols
	init := func(m *mem.Memory) {
		for _, in := range inits {
			m.Store(symbols[in.symbol]+in.wordOff*8, in.value)
		}
	}
	prog := b.Build(lay.Size(), p.threads, init)
	for k, v := range p.symbols {
		prog.Symbols[k] = v
	}
	return prog, nil
}

func (p *parser) reg(line int, tok string) (isa.Reg, error) {
	t := strings.ToLower(tok)
	if !strings.HasPrefix(t, "r") {
		return 0, p.errf(line, "expected register, got %q", tok)
	}
	n, err := strconv.Atoi(t[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, p.errf(line, "bad register %q", tok)
	}
	return isa.Reg(n), nil
}

func (p *parser) imm(line int, tok string) (int64, error) {
	if strings.HasPrefix(tok, "@") {
		sym := tok[1:]
		addr, ok := p.symbols[sym]
		if !ok {
			return 0, p.errf(line, "unknown symbol %q", sym)
		}
		return int64(addr), nil
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		// Allow full-range unsigned constants too.
		u, uerr := strconv.ParseUint(tok, 0, 64)
		if uerr != nil {
			return 0, p.errf(line, "bad immediate %q", tok)
		}
		return int64(u), nil
	}
	return v, nil
}

// memRef parses "[rN+OFF]" / "[rN-OFF]" / "[rN]".
func (p *parser) memRef(line int, tok string) (isa.Reg, int64, error) {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, p.errf(line, "expected memory reference, got %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	sep := strings.IndexAny(inner, "+-")
	if sep < 0 {
		r, err := p.reg(line, strings.TrimSpace(inner))
		return r, 0, err
	}
	r, err := p.reg(line, strings.TrimSpace(inner[:sep]))
	if err != nil {
		return 0, 0, err
	}
	off, err := p.imm(line, strings.TrimSpace(inner[sep:]))
	if err != nil {
		return 0, 0, err
	}
	return r, off, nil
}

func (p *parser) want(s stmt, n int) error {
	if len(s.args) != n {
		return p.errf(s.line, "%s needs %d operands, got %d (%q)", s.mnem, n, len(s.args), s.rawtxt)
	}
	return nil
}

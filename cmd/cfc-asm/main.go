// Command cfc-asm assembles guest assembly into the flat binary format the
// translator consumes, and disassembles binaries back to text.
//
// Usage:
//
//	cfc-asm -o prog.bin prog.s          # assemble
//	cfc-asm -d -entry 1 -data 0 prog.bin  # disassemble
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
)

func main() {
	var (
		out   = flag.String("o", "", "output file (default: stdout for -d, a.bin otherwise)")
		dis   = flag.Bool("d", false, "disassemble a binary instead of assembling")
		entry = flag.Uint("entry", 1, "entry address for -d (address 0 is the null page)")
		data  = flag.Uint("data", 4096, "data segment words for -d")
	)
	var app cli.App
	app.BindFlags(flag.CommandLine, 0)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cfc-asm [-d] [-o out] file")
		os.Exit(2)
	}
	fatalIf(app.Open())
	in := flag.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}

	if *dis {
		p, err := isa.LoadImage(in, src, uint32(*entry), uint32(*data))
		if err != nil {
			fatal(err)
		}
		publishProgram(app.Registry(), "disassemble", p)
		text := core.Disassemble(p)
		if *out == "" {
			fmt.Print(text)
			fatalIf(app.Close())
			return
		}
		fatalIf(os.WriteFile(*out, []byte(text), 0o644))
		fatalIf(app.Close())
		return
	}

	p, err := core.Assemble(in, string(src))
	if err != nil {
		fatal(err)
	}
	publishProgram(app.Registry(), "assemble", p)
	dst := *out
	if dst == "" {
		dst = "a.bin"
	}
	fatalIf(os.WriteFile(dst, p.Image(), 0o644))
	fmt.Printf("%s: %d instructions, entry 0x%x, data %d words -> %s\n",
		p.Name, p.Len(), p.Entry, p.DataWords, dst)
	fatalIf(app.Close())
}

func publishProgram(reg *obs.Registry, mode string, p *isa.Program) {
	if reg == nil {
		return
	}
	reg.Counter(fmt.Sprintf("asm_programs_total{mode=%q}", mode)).Inc()
	reg.Counter(fmt.Sprintf("asm_instructions_total{mode=%q}", mode)).Add(uint64(p.Len()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfc-asm:", err)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

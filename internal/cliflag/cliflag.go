// Package cliflag standardizes command-line handling across cmd/*: one
// name per flag, and a uniform failure mode — unknown or malformed
// flags, and stray arguments, print usage to stderr and exit 2 instead
// of half-parsing.
//
// The repo-wide canonical vocabulary:
//
//	-addr     listen/target address
//	-seed     RNG seed
//	-format   output format selector
//	-timeout  per-request/solve deadline
//	-o        output file path
//	-ntasks   tasks per generated instance
//
// A renamed flag moves its callers in the same change; the old spelling
// is not kept.
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Set wraps a flag.FlagSet with exit-2-on-error parsing.
type Set struct {
	fs   *flag.FlagSet
	name string
	// Exit is the exit seam (tests replace it). Defaults to os.Exit.
	Exit func(code int)
	// Output receives usage text. Defaults to os.Stderr.
	Output io.Writer
}

// New builds an empty flag set named after the command.
func New(name string) *Set {
	s := &Set{
		fs:     flag.NewFlagSet(name, flag.ContinueOnError),
		name:   name,
		Exit:   os.Exit,
		Output: os.Stderr,
	}
	// The FlagSet's own error output is silenced: Parse prints one
	// coherent usage block instead of flag's default interleaving.
	s.fs.SetOutput(io.Discard)
	s.fs.Usage = func() {}
	return s
}

func (s *Set) String(name, value, usage string) *string {
	return s.fs.String(name, value, usage)
}

func (s *Set) Int(name string, value int, usage string) *int {
	return s.fs.Int(name, value, usage)
}

func (s *Set) Int64(name string, value int64, usage string) *int64 {
	return s.fs.Int64(name, value, usage)
}

func (s *Set) Float64(name string, value float64, usage string) *float64 {
	return s.fs.Float64(name, value, usage)
}

func (s *Set) Bool(name string, value bool, usage string) *bool {
	return s.fs.Bool(name, value, usage)
}

func (s *Set) Duration(name string, value time.Duration, usage string) *time.Duration {
	return s.fs.Duration(name, value, usage)
}

// Usage prints the flag surface, sorted by name.
func (s *Set) Usage() {
	fmt.Fprintf(s.Output, "usage: %s [flags]\n", s.name)
	s.fs.VisitAll(func(f *flag.Flag) {
		def := ""
		if f.DefValue != "" && f.DefValue != "false" {
			def = fmt.Sprintf(" (default %s)", f.DefValue)
		}
		fmt.Fprintf(s.Output, "  -%s\n\t%s%s\n", f.Name, f.Usage, def)
	})
}

// Parse parses args (not including the command name). Errors — unknown
// flags, malformed values, a stray argument after the flags — print the
// error plus usage and exit 2. A bare -h/-help prints usage and exits 0.
func (s *Set) Parse(args []string) {
	err := s.fs.Parse(args)
	if err == nil && s.fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", s.fs.Arg(0))
	}
	if err == nil {
		return
	}
	if err == flag.ErrHelp {
		s.Usage()
		s.Exit(0)
		return
	}
	fmt.Fprintf(s.Output, "%s: %v\n", s.name, err)
	s.Usage()
	s.Exit(2)
}

// Visit calls fn with the name of each flag set on the command line.
func (s *Set) Visit(fn func(name string)) {
	s.fs.Visit(func(f *flag.Flag) { fn(f.Name) })
}

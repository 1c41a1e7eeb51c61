package cliflag

import (
	"bytes"
	"strings"
	"testing"
)

func newTestSet(t *testing.T) (*Set, *bytes.Buffer, *int) {
	t.Helper()
	s := New("tool")
	var out bytes.Buffer
	code := -1
	s.Output = &out
	s.Exit = func(c int) { code = c }
	return s, &out, &code
}

func TestCanonicalStillWorks(t *testing.T) {
	s, _, code := newTestSet(t)
	n := s.Int("ntasks", 10, "tasks per instance")

	s.Parse([]string{"-ntasks", "7"})
	if *code != -1 || *n != 7 {
		t.Fatalf("got code=%d n=%d, want -1, 7", *code, *n)
	}
}

func TestUnknownFlagExits2WithUsage(t *testing.T) {
	s, out, code := newTestSet(t)
	s.String("addr", ":8080", "listen address")

	s.Parse([]string{"-bogus"})
	if *code != 2 {
		t.Fatalf("exit code = %d, want 2", *code)
	}
	text := out.String()
	if !strings.Contains(text, "usage: tool") {
		t.Fatalf("usage missing from output:\n%s", text)
	}
	if !strings.Contains(text, "-addr") {
		t.Fatalf("canonical flag missing from usage:\n%s", text)
	}
}

func TestMalformedValueExits2(t *testing.T) {
	s, _, code := newTestSet(t)
	s.Int("seed", 1, "rng seed")

	s.Parse([]string{"-seed", "notanint"})
	if *code != 2 {
		t.Fatalf("exit code = %d, want 2", *code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	s, out, code := newTestSet(t)
	s.Bool("quiet", false, "suppress logs")

	s.Parse([]string{"-h"})
	if *code != 0 {
		t.Fatalf("exit code = %d, want 0", *code)
	}
	if !strings.Contains(out.String(), "-quiet") {
		t.Fatalf("usage missing -quiet:\n%s", out.String())
	}
}

func TestVisitReportsCanonicalNames(t *testing.T) {
	s, _, _ := newTestSet(t)
	s.String("o", "", "output file")
	s.Int("seed", 1, "rng seed")
	s.Bool("v", false, "verbose")

	s.Parse([]string{"-o", "x", "-seed", "3"})
	var got []string
	s.Visit(func(name string) { got = append(got, name) })
	if strings.Join(got, ",") != "o,seed" {
		t.Fatalf("Visit reported %v, want the set flags [o seed]", got)
	}
}

func TestPositionalArgs(t *testing.T) {
	s, _, _ := newTestSet(t)
	s.Bool("v", false, "verbose")
	s.Parse([]string{"-v", "a", "b"})
	if got := s.Args(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Args() = %v", got)
	}
}

package jdl

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseJDL mirrors the manifest and SWF/GWF fuzz harnesses for the
// full JDL grammar: Parse and ParseJob must never panic, and whatever
// Parse accepts must print to canonical JDL that parses back to the
// same descriptor and prints identically (String is a fixed point).
func FuzzParseJDL(f *testing.F) {
	f.Add(`Executable = "iapp"; JobType = {"interactive", "mpich-g2"}; NodeNumber = 2;`)
	f.Add(`Requirements = other.Arch == "i686" && other.MemoryMB >= 512; Rank = other.FreeCPUs - other.QueuedJobs / 2;`)
	f.Add(`Timeout = 60 * 5; Ratio = 0.25; Neg = -3; Flag = !(true || false);`)
	f.Add(`Name = "a\"b\\c\nd\te"; // comment
# comment
/* block */ Empty = {};`)
	f.Add(`Nested = {1, {"x", true}, -2.5};`)
	f.Add(``)
	// Found by fuzzing: numbers printed with an exponent, chained
	// comparisons and right-nested sums printed without parentheses,
	// and a folded constant that overflows to infinity.
	f.Add(`A=10000000000000000000;`)
	f.Add(`A = 1234567.5; B = 0.0000001;`)
	f.Add(`Rank = (other.A < 1) == (other.B >= 2); Requirements = !other.X;`)
	f.Add(`Rank = other.X + (other.Y + other.Z);`)
	big := "1" + strings.Repeat("0", 200)
	f.Add("A = " + big + " * " + big + ";")
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseJob(src)
		d, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		out := d.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical output rejected: %v\ninput: %q\noutput: %q", err, src, out)
		}
		if again := back.String(); again != out {
			t.Fatalf("String not a fixed point\ninput: %q\nfirst: %q\nsecond: %q", src, out, again)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("canonical output parses to a different descriptor\ninput: %q\noutput: %q", src, out)
		}
	})
}

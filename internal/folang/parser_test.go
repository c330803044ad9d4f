package folang

import "testing"

// FuzzParse checks that Parse never panics and that every formula it
// accepts prints as text that parses back to the same formula: printing
// the reparsed formula gives the same text.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		text := g.String()
		h, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its printed form %q fails: %v", src, text, err)
		}
		if again := h.String(); again != text {
			t.Fatalf("Parse(%q) prints %q, which reparses and prints as %q", src, text, again)
		}
	})
}

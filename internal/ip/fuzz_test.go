package ip

import "testing"

// FuzzParsePrefix checks that the parser never panics and that every
// accepted input round-trips through String.
func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/8", "0.0.0.0/0", "255.255.255.255/32", "1.2.3.4",
		"256.1.1.1/8", "1.2.3.4/33", "", "/", "a.b.c.d/x", "1.2.3.4/08",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		q, err := ParsePrefix(p.String())
		if err != nil || q != p {
			t.Fatalf("round trip of %q -> %v failed: %v", s, p, err)
		}
	})
}

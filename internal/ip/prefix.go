// Package ip provides the IPv4 prefix type and the bit
// utilities the SPAL partitioner and the longest-prefix-matching engines are
// built on.
//
// A Prefix is stored left-aligned: bit b0 of the paper (the most significant
// address bit) is bit 31 of Value. Bits at positions >= Len are "don't care"
// and must be zero in Value so that prefixes compare canonically.
package ip

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host order (b0 is the MSB).
type Addr = uint32

// Prefix is an IPv4 prefix of Len bits, left-aligned in Value.
// The zero value is the default prefix 0.0.0.0/0.
type Prefix struct {
	Value uint32 // left-aligned; bits below (32-Len) are zero
	Len   uint8  // 0..32
}

// Mask returns the netmask of a prefix of length l (l in 0..32).
func Mask(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// Canon returns p with don't-care bits cleared. All constructors in this
// package return canonical prefixes; Canon is for data read from outside.
func (p Prefix) Canon() Prefix {
	p.Value &= Mask(p.Len)
	return p
}

// Bit reports the value of bit position pos (paper notation: b0 is the
// leftmost/most significant bit). The second result is false when pos is at
// or beyond the prefix length, i.e. the bit is "*" (don't care).
func (p Prefix) Bit(pos int) (bit uint32, known bool) {
	if pos < 0 || pos >= int(p.Len) {
		return 0, false
	}
	return (p.Value >> (31 - uint(pos))) & 1, true
}

// AddrBit returns bit pos (b0 = MSB) of an address.
func AddrBit(a Addr, pos int) uint32 {
	return (a >> (31 - uint(pos))) & 1
}

// Matches reports whether address a falls inside prefix p.
func (p Prefix) Matches(a Addr) bool {
	return (a & Mask(p.Len)) == p.Value
}

// Contains reports whether p covers q, i.e. every address matched by q is
// matched by p. A prefix covers itself.
func (p Prefix) Contains(q Prefix) bool {
	return p.Len <= q.Len && (q.Value&Mask(p.Len)) == p.Value
}

// FirstAddr returns the lowest address covered by p.
func (p Prefix) FirstAddr() Addr { return p.Value }

// LastAddr returns the highest address covered by p.
func (p Prefix) LastAddr() Addr { return p.Value | ^Mask(p.Len) }

// String formats p in CIDR notation, e.g. "10.1.0.0/16".
func (p Prefix) String() string {
	return FormatAddr(p.Value) + "/" + strconv.Itoa(int(p.Len))
}

// FormatAddr renders a as dotted-quad.
func FormatAddr(a Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ip: bad address %q", s)
	}
	var a uint32
	for _, part := range parts {
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("ip: bad address %q: %v", s, err)
		}
		a = a<<8 | uint32(v)
	}
	return a, nil
}

// ParsePrefix parses CIDR notation ("a.b.c.d/len"). A missing "/len" is
// treated as a host route (/32).
func ParsePrefix(s string) (Prefix, error) {
	addr := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addr = s[:i]
		v, err := strconv.Atoi(s[i+1:])
		if err != nil || v < 0 || v > 32 {
			return Prefix{}, fmt.Errorf("ip: bad prefix length in %q", s)
		}
		length = v
	}
	a, err := ParseAddr(addr)
	if err != nil {
		return Prefix{}, err
	}
	return Prefix{Value: a, Len: uint8(length)}.Canon(), nil
}

// MustPrefix is ParsePrefix for constants in tests and examples; it panics
// on malformed input.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Less orders prefixes by value, then by length (shorter first). It is a
// strict weak ordering suitable for sort.Slice and binary search.
func (p Prefix) Less(q Prefix) bool {
	if p.Value != q.Value {
		return p.Value < q.Value
	}
	return p.Len < q.Len
}

// Sort sorts prefixes in (value, length) order in place.
func Sort(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// Dedup sorts ps and removes exact duplicates in place, returning the
// shortened slice.
func Dedup(ps []Prefix) []Prefix {
	Sort(ps)
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestAppendMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 1.0 / 3, 2.75, 1e-6, 9.99e-7, 1e-7, -3e-9, 1e20, 1e21, 1.5e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%g) = %s, want %s", f, got, want)
		}
	}
	for _, s := range []string{"", "a2a/exact", `<&>"\`, "\x00\x01\b\f\n\r\t\x1f\x7f", "h\u00e9llo", "\u2028\u2029", "\xff\xfe", "a\xe2\x80"} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

func FuzzAppendString(f *testing.F) {
	f.Add("x2y/solve-bfd")
	f.Add("<script>\u2028\xff")
	f.Fuzz(func(t *testing.T, s string) {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	})
}

// Package jsonenc appends JSON scalars byte for byte as encoding/json encodes
// them, for the hot responses that write their JSON by hand instead of
// through reflection. Callers own the structure; this package only spells
// strings and floats the way json.Marshal does, so a hand-written encoder
// stays byte-identical to the struct it replaces.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped like json.Marshal: HTML
// metacharacters and control bytes as \u00XX (with the short forms for \b,
// \f, \n, \r and \t), invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as json.Marshal formats a float64: the shortest
// representation, in exponent form only below 1e-6 or from 1e21 up, with
// the exponent unpadded. f must be finite; json.Marshal rejects NaN and
// infinities.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

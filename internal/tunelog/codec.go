package tunelog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"bolt/internal/costmodel"
)

// Frame delimiters: every line of a saved log is one of these or one
// record.
const (
	frameHead   = `{"entries":[`
	frameEnd    = `]}`
	frameModel  = `],"model":{"seed":`
	frameObs    = `,"obs":[`
	frameObsEnd = `]}}`
)

// encode renders a log in the frame. Entry lines are sorted, so the
// bytes depend only on what the log holds. A non-finite number is an
// error, as it is for encoding/json: the frame has no way to write it.
func encode(entries map[Key]Entry, model costmodel.State) ([]byte, error) {
	lines := make([][]byte, 0, len(entries))
	size := len(frameHead) + len(frameObsEnd) + 64
	for k, e := range entries {
		line, err := json.Marshal(jsonEntry{Key: k, Entry: e})
		if err != nil {
			return nil, fmt.Errorf("tunelog: entry %s: %w", k, err)
		}
		lines = append(lines, line)
		size += len(line) + 2
	}
	slices.SortFunc(lines, bytes.Compare)
	for _, o := range model.Obs {
		size += len(o.Group) + 24*len(o.Feat) + 40
	}

	b := make([]byte, 0, size)
	b = append(b, frameHead...)
	for i, line := range lines {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = append(b, line...)
	}
	b = append(b, '\n')
	if len(model.Obs) == 0 {
		return append(b, frameEnd+"\n"...), nil
	}
	b = append(b, frameModel...)
	b = strconv.AppendInt(b, model.Seed, 10)
	b = append(b, frameObs...)
	// A trained log's numbers repeat (a few percent are distinct): each
	// distinct one is formatted once, and a repeat copies its bytes.
	memo := make(floatMemo)
	for i, o := range model.Obs {
		if !finite(o) {
			return nil, fmt.Errorf("tunelog: observation of %q holds a non-finite number", o.Group)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"g\":"...)
		b = appendString(b, o.Group)
		b = append(b, `,"f":[`...)
		for j, f := range o.Feat {
			if j > 0 {
				b = append(b, ',')
			}
			b = memo.append(b, f)
		}
		b = append(b, `],"y":`...)
		b = memo.append(b, o.Y)
		b = append(b, '}')
	}
	return append(b, "\n"+frameObsEnd+"\n"...), nil
}

func finite(o costmodel.Observation) bool {
	for _, f := range o.Feat {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return !math.IsNaN(o.Y) && !math.IsInf(o.Y, 0)
}

// appendFloat writes f in strconv's shortest round-trip form.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// floatMemo holds the bytes appendFloat wrote for each number, keyed by
// its bits (so -0 and 0 stay apart). The bytes are sub-slices of the
// buffer being written: an append never changes bytes already in it.
type floatMemo map[uint64][]byte

// append writes f as appendFloat does.
func (m floatMemo) append(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if s, ok := m[bits]; ok {
		return append(b, s...)
	}
	n := len(b)
	b = appendFloat(b, f)
	m[bits] = b[n:len(b):len(b)]
	return b
}

// appendString writes s as a JSON string. A string that needs an
// escape (no name this package writes does) goes through
// encoding/json.
func appendString(b []byte, s string) []byte {
	if needsEscape(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// needsEscape reports whether s cannot sit between quotes as it is: it
// holds a quote, a backslash, a control byte or invalid UTF-8.
func needsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' {
			return true
		}
	}
	return !utf8.ValidString(s)
}

// decodeFrame reads a log written in the frame. ok is false for any
// other text, which the caller hands to encoding/json instead; on text
// it accepts, it agrees with encoding/json. Entry lines go through
// encoding/json one at a time; observation lines, which are nearly all
// of a trained log, are parsed here.
func decodeFrame(buf []byte) (db jsonLog, ok bool) {
	rest := buf
	line := func() ([]byte, bool) {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return nil, false
		}
		l := rest[:i]
		rest = rest[i+1:]
		return l, true
	}
	if l, ok := line(); !ok || string(l) != frameHead {
		return jsonLog{}, false
	}
	db.Entries = []jsonEntry{}
	tail, ok := recordLines(line, func(rec []byte) bool {
		var e jsonEntry
		if json.Unmarshal(rec, &e) != nil {
			return false
		}
		db.Entries = append(db.Entries, e)
		return true
	})
	if !ok {
		return jsonLog{}, false
	}
	if string(tail) == frameEnd {
		return db, len(rest) == 0
	}
	seed, ok := bytes.CutPrefix(tail, []byte(frameModel))
	if !ok {
		return jsonLog{}, false
	}
	if seed, ok = bytes.CutSuffix(seed, []byte(frameObs)); !ok || !isNumber(seed) {
		return jsonLog{}, false
	}
	s, err := strconv.ParseInt(string(seed), 10, 64)
	if err != nil {
		return jsonLog{}, false
	}
	d := obsDecoder{
		groups:  make(map[string]string),
		numbers: make(map[numToken]float64),
		// Every feature is followed by a comma or a bracket, and so is
		// every line: the commas bound the feature count.
		slab: make([]float64, 0, bytes.Count(rest, []byte{','})),
	}
	model := &costmodel.State{Seed: s, Obs: make([]costmodel.Observation, 0, bytes.Count(rest, []byte{'\n'}))}
	tail, ok = recordLines(line, func(rec []byte) bool {
		o, ok := d.observation(rec)
		model.Obs = append(model.Obs, o)
		return ok
	})
	if !ok || string(tail) != frameObsEnd || len(rest) != 0 {
		return jsonLog{}, false
	}
	db.Model = model
	return db, true
}

// recordLines reads the records of one list, one per line and separated
// by a comma at the end of every line but the last, up to the line that
// closes the list, which it returns.
func recordLines(line func() ([]byte, bool), record func([]byte) bool) (closing []byte, ok bool) {
	more := false
	for n := 0; ; n++ {
		l, ok := line()
		if !ok {
			return nil, false
		}
		if len(l) > 0 && l[0] == ']' {
			// No comma may dangle before the closing bracket.
			return l, !more
		}
		if n > 0 && !more {
			return nil, false
		}
		l, more = bytes.CutSuffix(l, []byte{','})
		if !record(l) {
			return nil, false
		}
	}
}

// obsDecoder parses observation lines: {"g":"…","f":[…],"y":…}.
type obsDecoder struct {
	// groups interns workload names: a trained log holds a few dozen
	// names over a thousand-odd rows.
	groups map[string]string
	// slab backs every row's features, each capped at its own length.
	slab []float64
	// numbers holds the value of every number token read so far: a
	// trained log's numbers repeat, so each distinct one is parsed once.
	numbers map[numToken]float64
}

// numToken is a number token as a map key that costs no allocation.
// Any float64's shortest form fits; a longer token skips the memo.
type numToken struct {
	n uint8
	b [24]byte
}

// number parses the JSON number that b starts with and returns its
// length. ok is false when b does not start with one or it does not
// fit a float64, as encoding/json would refuse it.
func (d *obsDecoder) number(b []byte) (f float64, n int, ok bool) {
	for n < len(b) && isNumberByte(b[n]) {
		n++
	}
	tok := b[:n]
	var k numToken
	memo := n <= len(k.b)
	if memo {
		k.n = uint8(n)
		copy(k.b[:], tok)
		if f, ok := d.numbers[k]; ok {
			return f, n, true
		}
	}
	if !isNumber(tok) {
		return 0, n, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, n, false
	}
	if memo {
		d.numbers[k] = f
	}
	return f, n, true
}

func (d *obsDecoder) observation(rec []byte) (costmodel.Observation, bool) {
	var o costmodel.Observation
	rest, ok := bytes.CutPrefix(rec, []byte(`{"g":"`))
	if !ok {
		return o, false
	}
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		return o, false
	}
	name := rest[:i]
	g, ok := d.groups[string(name)]
	if !ok {
		// A name with an escape declines the frame: only
		// encoding/json knows every escape.
		if g = string(name); needsEscape(g) {
			return o, false
		}
		d.groups[g] = g
	}
	o.Group = g
	if rest, ok = bytes.CutPrefix(rest[i+1:], []byte(`,"f":[`)); !ok {
		return o, false
	}
	start := len(d.slab)
	if len(rest) > 0 && rest[0] == ']' {
		rest = rest[1:]
	} else {
		for {
			f, n, ok := d.number(rest)
			if !ok || n == len(rest) {
				return o, false
			}
			d.slab = append(d.slab, f)
			sep := rest[n]
			rest = rest[n+1:]
			if sep == ']' {
				break
			}
			if sep != ',' {
				return o, false
			}
		}
	}
	o.Feat = d.slab[start:len(d.slab):len(d.slab)]
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"y":`)); !ok {
		return o, false
	}
	if rest, ok = bytes.CutSuffix(rest, []byte{'}'}); !ok {
		return o, false
	}
	y, n, ok := d.number(rest)
	o.Y = y
	return o, ok && n == len(rest)
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// isNumber reports whether b is exactly one number in JSON's grammar,
// which is stricter than strconv's (no "+1", ".5", "1.", "01", "inf").
func isNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}

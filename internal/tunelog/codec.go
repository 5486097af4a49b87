package tunelog

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"bolt/internal/costmodel"
)

// Frame delimiters: every line of a saved log is one of these or one
// record.
const (
	frameHead      = `{"entries":[`
	frameEnd       = `]}`
	frameModel     = `],"model":{"seed":`
	frameWorkloads = `,"workloads":[`
	frameRows      = `],"measurements":[`
	frameModelEnd  = `]}}`
)

// encode renders a log in the frame. Entry lines and workload lines
// are sorted, and each workload's rows, so the bytes depend only on what
// the log holds. A non-finite entry time is an error, as it is for
// encoding/json: the frame has no way to write it.
func encode(entries map[Key]Entry, model costmodel.State) ([]byte, error) {
	// line is a record, with a row's workload and target.
	type line struct {
		w    int
		y    float64
		text []byte
	}
	var ents, table []line
	size := 64
	for k, e := range entries {
		text, err := json.Marshal(jsonEntry{Key: k, Entry: e})
		if err != nil {
			return nil, fmt.Errorf("tunelog: entry %s: %w", k, err)
		}
		ents = append(ents, line{text: text})
		size += len(text) + 2
	}
	// The table holds each workload's line once; a row names its
	// workload by the line's position.
	index := make(map[*costmodel.Workload]int)
	for _, o := range model.Obs {
		if _, ok := index[o.Workload]; !ok {
			text, _ := json.Marshal(jsonWorkload{o.Workload.Group, workloadKey(o.Workload)}) // always marshals
			index[o.Workload] = len(table)
			table = append(table, line{w: len(table), text: text})
			size += len(text) + 2
		}
	}
	byText := func(a, b line) int { return bytes.Compare(a.text, b.text) }
	slices.SortFunc(ents, byText)
	slices.SortFunc(table, byText)
	pos := make([]int, len(table))
	for i, t := range table {
		pos[t.w] = i
	}
	rows := make([]line, len(model.Obs))
	buf := make([]byte, 0, 80*len(model.Obs))
	for i, o := range model.Obs {
		start, w := len(buf), pos[index[o.Workload]]
		buf = strconv.AppendInt(append(buf, '['), int64(w), 10)
		for _, f := range configFields(o.Config) {
			buf = strconv.AppendInt(append(buf, ','), int64(f), 10)
		}
		buf = append(strconv.AppendFloat(append(buf, ','), o.Y, 'g', -1, 64), ']')
		rows[i] = line{w, o.Y, buf[start:]}
	}
	size += len(buf) + 2*len(rows)
	// A workload's rows go fastest first.
	slices.SortFunc(rows, func(a, b line) int {
		if a.w != b.w || a.y != b.y {
			return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(a.y, b.y))
		}
		return bytes.Compare(a.text, b.text)
	})

	// Each record starts a line: a list's first after the list's opening
	// line, each later one after a comma.
	b := make([]byte, 0, size)
	list := func(open string, lines []line) {
		b = append(b, open...)
		for i, l := range lines {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(b, '\n'), l.text...)
		}
		b = append(b, '\n')
	}
	list(frameHead, ents)
	if len(model.Obs) == 0 {
		return append(b, frameEnd+"\n"...), nil
	}
	list(frameModel+strconv.FormatInt(model.Seed, 10)+frameWorkloads, table)
	list(frameRows, rows)
	return append(b, frameModelEnd+"\n"...), nil
}

// decodeFrame reads a log written in the frame. ok is false for any
// other text, which the caller hands to encoding/json instead; on text
// it accepts, it agrees with encoding/json. The entry and workload
// lists each go through encoding/json in one call; measurement rows,
// which are nearly all of a trained log, are parsed here, in the form
// Save writes: a row written any other way declines the frame.
func decodeFrame(buf []byte) (db jsonLog, ok bool) {
	rest, ok := bytes.CutPrefix(buf, []byte(frameHead+"\n"))
	if !ok {
		return jsonLog{}, false
	}
	// list decodes into v the array whose '[' ends the line before rest
	// and whose ']' starts a later line, and returns that line.
	list := func(v any) ([]byte, bool) {
		open := len(buf) - len(rest) - 2
		end := bytes.Index(buf[open+1:], []byte("\n]"))
		if end < 0 {
			return nil, false
		}
		closing := buf[open+end+2:]
		n := bytes.IndexByte(closing, '\n')
		if n < 0 || json.Unmarshal(buf[open:open+end+3], v) != nil {
			return nil, false
		}
		rest = closing[n+1:]
		return closing[:n], true
	}
	tail, ok := list(&db.Entries)
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
	seed, ok = bytes.CutSuffix(seed, []byte(frameWorkloads))
	s, err := strconv.ParseInt(string(seed), 10, 64)
	if !ok || err != nil || strconv.FormatInt(s, 10) != string(seed) {
		return jsonLog{}, false
	}
	model := &jsonModel{Seed: s}
	if tail, ok = list(&model.Workloads); !ok || string(tail) != frameRows {
		return jsonLog{}, false
	}
	// Rows take a line each, a comma ending every line but the last. A
	// comma follows every number but a row's last: the commas bound the
	// number count, so one slab backs every row.
	body, ok := bytes.CutSuffix(rest, []byte("\n"+frameModelEnd+"\n"))
	slab := make([]float64, 0, bytes.Count(body, []byte{','})+1)
	model.Rows = make([][]float64, 0, bytes.Count(body, []byte{'\n'})+1)
	for more := ok; more; {
		rec, tail, _ := bytes.Cut(body, []byte{'\n'})
		if rec, more = bytes.CutSuffix(rec, []byte{','}); more != (len(tail) > 0) {
			return jsonLog{}, false
		}
		start := len(slab)
		if slab, ok = appendRow(slab, rec); !ok {
			return jsonLog{}, false
		}
		model.Rows, body = append(model.Rows, slab[start:len(slab):len(slab)]), tail
	}
	if !ok {
		return jsonLog{}, false
	}
	db.Model = model
	return db, true
}

// appendRow appends the numbers of a measurement row, [n,…,n], to
// slab. ok is false unless the record is written as Save writes it.
func appendRow(slab []float64, rec []byte) (_ []float64, ok bool) {
	rec, ok = bytes.CutPrefix(rec, []byte{'['})
	if rec, ok = bytes.CutSuffix(rec, []byte{']'}); !ok || len(rec) == 0 {
		return slab, ok
	}
	for more := true; more; {
		var tok []byte
		tok, rec, more = bytes.Cut(rec, []byte{','})
		f, ok := number(tok)
		if !ok {
			return slab, false
		}
		slab = append(slab, f)
	}
	return slab, true
}

// number reads a token written as Save writes a number: a short run of
// digits (a workload index or a config field), or strconv's shortest
// form of a float64. Either is a JSON number, of the value
// encoding/json reads.
func number(tok []byte) (float64, bool) {
	v := 0
	for i, c := range tok {
		if c < '0' || c > '9' || i == 9 {
			v = -1
			break
		}
		v = v*10 + int(c-'0')
	}
	if v >= 0 && len(tok) > 0 && (tok[0] != '0' || len(tok) == 1) {
		return float64(v), true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	return f, err == nil && string(strconv.AppendFloat(canon[:0], f, 'g', -1, 64)) == string(tok)
}

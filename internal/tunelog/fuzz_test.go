package tunelog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// FuzzTunelogDecode checks the frame decoder against encoding/json:
// on any input it either declines or reads the same document. Any
// input that loads also round-trips: Load, Save, Load gives an equal
// log, which saves the same bytes.
func FuzzTunelogDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		if got, ok := decodeFrame(file); ok {
			var want jsonLog
			if err := json.Unmarshal(file, &want); err != nil {
				t.Fatalf("the frame decoder accepted what encoding/json refuses: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the frame decoder read %+v, encoding/json %+v", got, want)
			}
		}

		l := New()
		if err := l.Load(bytes.NewReader(file)); err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := l.Save(&first); err != nil {
			t.Fatalf("a loaded log does not save: %v", err)
		}
		again := New()
		if err := again.Load(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("a saved log does not load: %v\n%s", err, first.Bytes())
		}
		if _, ok := decodeFrame(first.Bytes()); !ok {
			t.Errorf("the frame decoder declined a save:\n%s", first.Bytes())
		}
		if !reflect.DeepEqual(again.entries, l.entries) {
			t.Errorf("entries changed across Save and Load")
		}
		if !slices.Equal(obsKeys(again.Model.State().Obs), obsKeys(l.Model.State().Obs)) {
			t.Errorf("the model changed across Save and Load")
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("a reloaded log saves other bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

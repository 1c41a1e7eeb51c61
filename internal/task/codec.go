package task

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// jsonTask is the stable on-disk representation of a task. The field names
// mirror the paper's notation rather than the Go struct, so files stay
// readable next to the text.
type jsonTask struct {
	R float64 `json:"release"`
	C float64 `json:"work"`
	D float64 `json:"deadline"`
}

// MarshalJSON encodes the set as an array of {release, work, deadline}
// objects; IDs are positional.
func (s Set) MarshalJSON() ([]byte, error) {
	out := make([]jsonTask, len(s))
	for i, t := range s {
		out[i] = jsonTask{R: t.Release, C: t.Work, D: t.Deadline}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes an array of {release, work, deadline} objects and
// renumbers IDs positionally. An object with any other field is an
// error, as under json.Decoder.DisallowUnknownFields. The decoded set is
// validated.
func (s *Set) UnmarshalJSON(data []byte) error {
	var in []jsonTask
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if !onlyTaskKeys(data) {
		// Let encoding/json name the unknown field, or accept a key that
		// matches a field only up to case or escaping.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&in); err != nil {
			return err
		}
	}
	out := make(Set, len(in))
	for i, jt := range in {
		out[i] = Task{ID: i, Release: jt.R, Work: jt.C, Deadline: jt.D}
	}
	if err := out.Validate(); err != nil {
		return fmt.Errorf("task: decoded set invalid: %w", err)
	}
	*s = out
	return nil
}

// onlyTaskKeys reports whether every object key in data, an array that
// json.Unmarshal accepted as []jsonTask, is spelled exactly as a
// jsonTask field. Such an array holds objects (or null) whose jsonTask
// fields hold numbers (or null), and the scan stops at the first other
// key, so a key is the first string after a '{' or a ',' at depth 2.
// This spares a decoder's copy of data on the common path; a false
// answer only means a strict decode must decide.
func onlyTaskKeys(data []byte) bool {
	depth, key := 0, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; c {
		case '[', '{':
			depth++
			key = c == '{'
		case ']', '}':
			depth--
		case ',':
			key = depth == 2
		case '"':
			j := i + 1
			for ; data[j] != '"'; j++ {
				if data[j] == '\\' {
					j++
				}
			}
			if key {
				switch string(data[i+1 : j]) {
				case "release", "work", "deadline":
				default:
					return false
				}
				key = false
			}
			i = j
		}
	}
	return true
}

// Write streams the set as indented JSON.
func (s Set) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Read decodes a set previously written with Write (or any JSON array of
// {release, work, deadline} objects).
func Read(r io.Reader) (Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return s, nil
}

package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
)

// ownKeys reports whether every object key in data, one JSON value that
// json.Unmarshal has decoded into a value of type t, is spelled exactly
// as a field of the Go type at its place. Such a key names the field
// that a strict decoder fills, so a strict decode of data finds no
// unknown field. The value of a map, an interface or a json.Unmarshaler
// (task.Set, json.RawMessage) is not looked into: under a strict decoder
// it decides for itself what it accepts, too. A false answer only means
// that the strict decoder must decide: a key that matches a field up to
// case or escaping, or a struct with embedded fields, which the scan
// does not follow.
func ownKeys(data []byte, t reflect.Type) bool {
	s := keyScan{data: data}
	return s.value(t)
}

// keyScan walks valid JSON.
type keyScan struct {
	data []byte
	i    int
}

// at returns the byte at the scan position after any white space, or
// 0 at the end of the data.
func (s *keyScan) at() byte {
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// value scans one value decoded into type t.
func (s *keyScan) value(t reflect.Type) bool {
	c := s.at()
	info := typeInfoOf(t)
	if (c != '{' && c != '[') || info.opaque {
		s.skip()
		return c != 0
	}
	s.i++
	if c == '[' {
		if info.kind != reflect.Slice && info.kind != reflect.Array {
			return false
		}
		for {
			switch s.at() {
			case ']':
				s.i++
				return true
			case ',':
				s.i++
			case 0:
				return false
			default:
				if !s.value(info.elem) {
					return false
				}
			}
		}
	}
	if info.fields == nil && info.kind != reflect.Map {
		return false
	}
	for {
		switch s.at() {
		case '}':
			s.i++
			return true
		case ',':
			s.i++
		case '"':
			key := s.str()
			ft := info.elem
			if info.fields != nil {
				var ok bool
				if ft, ok = info.fields[string(key)]; !ok {
					return false
				}
			}
			if s.at() != ':' {
				return false
			}
			s.i++
			if !s.value(ft) {
				return false
			}
		default:
			return false
		}
	}
}

// str moves past the string at the scan position and returns its
// contents as written, escapes and all.
func (s *keyScan) str() []byte {
	start := s.i + 1
	for s.i = start; s.i < len(s.data) && s.data[s.i] != '"'; s.i++ {
		if s.data[s.i] == '\\' {
			s.i++
		}
	}
	k := s.data[start:min(s.i, len(s.data))]
	s.i++
	return k
}

// skip moves past the value at the scan position.
func (s *keyScan) skip() {
	depth := 0
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case '"':
			s.str()
			if depth == 0 {
				return
			}
			continue
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return
			}
			if depth--; depth == 0 {
				s.i++
				return
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return
			}
		}
		s.i++
	}
}

// typeInfo is what the scan needs to know of a Go type.
type typeInfo struct {
	// opaque is set for a json.Unmarshaler or an interface, whose value
	// the scan skips.
	opaque bool
	kind   reflect.Kind
	// elem is the type of a slice's, an array's or a map's elements.
	elem reflect.Type
	// fields maps a struct's JSON keys to their field types; nil for a
	// struct the scan does not follow.
	fields map[string]reflect.Type
}

var (
	typeInfos       sync.Map // reflect.Type → *typeInfo
	unmarshalerType = reflect.TypeFor[json.Unmarshaler]()
)

// typeInfoOf returns t's typeInfo, with pointers followed as
// encoding/json follows them.
func typeInfoOf(t reflect.Type) *typeInfo {
	if v, ok := typeInfos.Load(t); ok {
		return v.(*typeInfo)
	}
	info := &typeInfo{}
	u := t
	for u.Kind() == reflect.Pointer && !u.Implements(unmarshalerType) {
		u = u.Elem()
	}
	info.kind = u.Kind()
	switch {
	case u.Implements(unmarshalerType) || reflect.PointerTo(u).Implements(unmarshalerType) || u.Kind() == reflect.Interface:
		info.opaque = true
	case u.Kind() == reflect.Slice || u.Kind() == reflect.Array || u.Kind() == reflect.Map:
		info.elem = u.Elem()
	case u.Kind() == reflect.Struct:
		info.fields = structKeys(u)
	}
	v, _ := typeInfos.LoadOrStore(t, info)
	return v.(*typeInfo)
}

// structKeys maps the JSON keys of struct type t to their field types,
// or returns nil when encoding/json might name a field otherwise: an
// embedded field, a key two fields share, or a tag name of other than
// letters, digits, '_' and '-'.
func structKeys(t reflect.Type) map[string]reflect.Type {
	keys := make(map[string]reflect.Type, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return nil
		}
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		if _, dup := keys[name]; dup || strings.IndexFunc(name, func(r rune) bool {
			return !(r == '_' || r == '-' || '0' <= r && r <= '9' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z')
		}) >= 0 {
			return nil
		}
		keys[name] = f.Type
	}
	return keys
}

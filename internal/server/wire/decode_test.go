package wire

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// requestBody is a well-formed ScheduleRequest body.
const requestBody = `{"algorithm":"S^F2","cores":4,"model":{"alpha":3,"p0":0.05},` +
	`"tasks":[{"release":0,"work":8,"deadline":10},{"release":2,"work":14,"deadline":18}]}`

// TestDecodeMessages pins the 400 message of every kind of bad request
// body, and the decode of bodies that only a strict decoder reads
// (keys that match a field up to case or escaping).
func TestDecodeMessages(t *testing.T) {
	const prefix = "invalid request body: "
	for _, c := range []struct {
		name, body, want string
	}{
		{"unknown top-level field", strings.Replace(requestBody, `"cores":4,`, `"cores":4,"priority":1,`, 1),
			`json: unknown field "priority"`},
		{"unknown model field", strings.Replace(requestBody, `"p0":0.05`, `"p0":0.05,"beta":2`, 1),
			`json: unknown field "beta"`},
		{"unknown task field", strings.Replace(requestBody, `"work":8,`, `"work":8,"id":3,`, 1),
			`json: unknown field "id"`},
		{"trailing data", requestBody + ` {}`, `trailing data after JSON value`},
		{"trailing garbage", requestBody + `x`, `trailing data after JSON value`},
		{"truncated body", requestBody[:len(requestBody)/2], `unexpected EOF`},
		{"empty body", ``, `EOF`},
		{"wrong type", strings.Replace(requestBody, `"cores":4`, `"cores":"4"`, 1),
			`json: cannot unmarshal string into Go struct field ScheduleRequest.cores of type int`},
		{"wrong model type", strings.Replace(requestBody, `{"alpha":3,"p0":0.05}`, `[3]`, 1),
			`json: cannot unmarshal array into Go struct field ScheduleRequest.model of type wire.ModelJSON`},
		{"wrong task type", strings.Replace(requestBody, `"work":8`, `"work":"8"`, 1),
			`json: cannot unmarshal string into Go struct field ScheduleRequest.tasks.work of type float64`},
		{"syntax error", strings.Replace(requestBody, `"cores":4`, `"cores":4,,`, 1),
			`invalid character ',' looking for beginning of object key string`},
		{"case-folded key", strings.Replace(requestBody, `"cores"`, `"Cores"`, 1), ``},
		{"escaped key", strings.Replace(requestBody, `"alpha"`, `"\u0061lpha"`, 1), ``},
		{"duplicate key", strings.Replace(requestBody, `"cores":4`, `"cores":3,"cores":4`, 1), ``},
		{"spaces", " \n" + strings.ReplaceAll(requestBody, ",", " ,\t") + " \n", ``},
	} {
		var got ScheduleRequest
		err := Decode([]byte(c.body), &got)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "":
			var want ScheduleRequest
			if err := json.Unmarshal([]byte(requestBody), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: decoded %+v, want %+v", c.name, got, want)
			}
		case err == nil:
			t.Errorf("%s: accepted", c.name)
		case err.Error() != prefix+c.want:
			t.Errorf("%s: %q, want %q", c.name, err, prefix+c.want)
		}
	}
}

// decodeTargets returns a new value of every type the server decodes
// request bodies into.
func decodeTargets() []any {
	return []any{new(ScheduleRequest), new(BatchRequest), new(FeasibleRequest), new(ArrivalRequest),
		new(SessionCreateRequest), new(SessionRestoreRequest)}
}

// The bodies clients send take json.Unmarshal, without the strict
// decoder; a key spelled other than as its field's does not.
func TestOwnKeys(t *testing.T) {
	batch, err := json.Marshal(BatchRequest{Items: []json.RawMessage{json.RawMessage(requestBody), json.RawMessage(`{"x":1}`)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		body string
		v    any
		want bool
	}{
		{requestBody, new(ScheduleRequest), true},
		{" \n" + strings.ReplaceAll(requestBody, ",", " ,\t") + " \n", new(ScheduleRequest), true},
		{string(batch), new(BatchRequest), true},
		{`{"at":3.5,"tasks":[{"release":3.5,"work":1,"deadline":9}]}`, new(ArrivalRequest), true},
		{`{"id":"s1","cores":4,"model":{"gamma":1,"alpha":3,"p0":0.05},"skip_ratio":true}`, new(SessionCreateRequest), true},
		{`{"id":"s1","snapshot":{"algorithm":"ReplanDER","cores":2,"model":{"Gamma":1,"Alpha":3,"P0":0},` +
			`"committed":[{"Task":0,"Core":1,"Start":0,"End":1,"Frequency":0.5}]}}`, new(SessionRestoreRequest), true},
		{strings.Replace(requestBody, `"cores"`, `"Cores"`, 1), new(ScheduleRequest), false},
		{strings.Replace(requestBody, `"alpha"`, `"\u0061lpha"`, 1), new(ScheduleRequest), false},
		{strings.Replace(requestBody, `"p0":0.05`, `"p0":0.05,"cores":1`, 1), new(ScheduleRequest), false},
	} {
		if err := json.Unmarshal([]byte(c.body), c.v); err != nil {
			t.Fatal(err)
		}
		if got := ownKeys([]byte(c.body), reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("ownKeys(%T, %s) = %v, want %v", c.v, c.body, got, c.want)
		}
	}
}

// FuzzDecodeMatchesStrict requires Decode to return what the strict
// decoder returns, for every request type: the same value, or the same
// error text.
func FuzzDecodeMatchesStrict(f *testing.F) {
	f.Add(requestBody)
	f.Add(`{"items":[` + requestBody + `,{"cores":2}]}`)
	f.Add(`{"at":1,"tasks":[{"release":1,"work":2,"deadline":3}],"Tasks":null}`)
	f.Add(`{"cores":2,"model":{"alpha":3,"p0":0,"Alpha":2},"debounce_ms":1}`)
	f.Add(`{"id":"a","snapshot":{"cores":2,"tasks":[{"id":0}],"committed":[{"Task":0,"task":1}]}}`)
	f.Add(`{"cores":4,"speed":0.5,"tasks":[]} `)
	f.Add(`{"model":{"alpha":3,"p0":0.05,"beta":2}}`)
	f.Add(`[{"cores":4}]`)
	f.Fuzz(func(t *testing.T, body string) {
		want := decodeTargets()
		for i, got := range decodeTargets() {
			err := Decode([]byte(body), got)
			werr := decodeStrict([]byte(body), want[i])
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("%T: Decode: %v, strict: %v", got, err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("%T: Decode: %q, strict: %q", got, err, werr)
			case err == nil && !reflect.DeepEqual(got, want[i]):
				t.Fatalf("%T: Decode: %+v, strict: %+v", got, got, want[i])
			}
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"
)

// FuzzParams drives params, the merge of the query string and a POSTed
// JSON body that every route reads its parameters through, with an
// arbitrary raw query and body. It must never panic; a key repeated in
// the query, or sent in both the query and the body, must be an error;
// and an accepted map must hold exactly the keys of the two channels,
// each from one of them with that channel's value.
func FuzzParams(f *testing.F) {
	f.Add("m=2&k=3", []byte(`{"f": 1}`))
	f.Add("k=1&k=2", []byte(``))
	f.Add("k=3", []byte(`{"k": 3}`))
	f.Add("", []byte(`{"model": "crash", "horizon": 1e4, "flag": true}`))
	f.Add("m=2", []byte(`{"m": 2} {"k": 1}`))
	f.Add("a=1;b=2&%zz=1", []byte(`{"nested": {"k": 1}}`))
	f.Add("p=0.25", []byte(`null`))
	f.Add("seed=", []byte(`{"seed": "", "samples": [1]}`))
	f.Fuzz(func(t *testing.T, rawQuery string, body []byte) {
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/verify", RawQuery: rawQuery},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		got, err := params(r)

		query := r.URL.Query()
		var fields map[string]any
		_ = json.Unmarshal(body, &fields) // an invalid body adds no keys
		for key, vals := range query {
			if len(vals) > 1 && err == nil {
				t.Fatalf("query %q repeats %q but was accepted: %v", rawQuery, key, got)
			}
			if _, both := fields[key]; both && err == nil {
				t.Fatalf("%q is in the query %q and the body %q but was accepted: %v", key, rawQuery, body, got)
			}
		}
		if err != nil {
			return
		}
		if len(got) != len(query)+len(fields) {
			t.Fatalf("query %q and body %q merged to %d keys, want %d: %v", rawQuery, body, len(got), len(query)+len(fields), got)
		}
		for key, val := range got {
			vals, inQuery := query[key]
			field, inBody := fields[key]
			switch {
			case inQuery == inBody:
				t.Fatalf("accepted %q from both channels or neither (query %q, body %q)", key, rawQuery, body)
			case inQuery && val != vals[0]:
				t.Fatalf("%q = %q, want the query's %q", key, val, vals[0])
			case inBody:
				if want, cerr := coerceParam(key, field); cerr != nil || val != want {
					t.Fatalf("%q = %q, want the body's %q (%v)", key, val, want, cerr)
				}
			}
		}
	})
}

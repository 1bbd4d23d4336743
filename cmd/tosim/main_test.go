package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

func TestParseIDs(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []types.ProcID
		wantErr string // substring; "" = accept
	}{
		{in: "0,1,2", want: []types.ProcID{0, 1, 2}},
		{in: " 4 , 0", want: []types.ProcID{4, 0}},
		{in: "0,9", wantErr: "id 9 outside [0, 5)"},
		{in: "5", wantErr: "id 5 outside [0, 5)"},
		{in: "-1", wantErr: "id -1 outside [0, 5)"},
		{in: "1,2,1", wantErr: "id 1 named twice"},
		{in: "0,x", wantErr: `id "x"`},
		{in: "", wantErr: `id ""`},
	} {
		got, err := parseIDs(tc.in, 5)
		if tc.wantErr == "" {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parseIDs(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseIDs(%q) error %v, want one containing %q", tc.in, err, tc.wantErr)
		}
	}
}

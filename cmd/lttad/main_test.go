package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// TestParseFlagsRoles pins that a flag only one role reads is refused,
// by name, when it is set explicitly for the other role, while every
// shared flag and every flag of the chosen role is accepted.
func TestParseFlagsRoles(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		badFlag string // "" = must parse
	}{
		{args: nil},
		{args: []string{"-workers", "4", "-check-timeout", "1s", "-batch-timeout", "2s", "-registry-bytes", "-1"}},
		{args: []string{"-coordinator", "a:1,b:2", "-hedge-after", "-1s", "-max-attempts", "2", "-probe-interval", "50ms"}},
		{args: []string{"-coordinator", "a:1", "-queue", "8", "-max-body", "1024", "-max-checks", "5",
			"-registry-size", "3", "-trace-dir", "t", "-flight-last", "4", "-flight-slowest", "2", "-drain-timeout", "1s"}},
		{args: []string{"-coordinator", "a:1", "-workers", "2"}, badFlag: "workers"},
		{args: []string{"-coordinator", "a:1", "-check-timeout", "1s"}, badFlag: "check-timeout"},
		{args: []string{"-coordinator", "a:1", "-batch-timeout", "1s"}, badFlag: "batch-timeout"},
		{args: []string{"-coordinator", "a:1", "-registry-bytes", "1"}, badFlag: "registry-bytes"},
		{args: []string{"-hedge-after", "2s"}, badFlag: "hedge-after"},
		{args: []string{"-max-attempts", "3"}, badFlag: "max-attempts"},
		{args: []string{"-probe-interval", "1s"}, badFlag: "probe-interval"},
	} {
		var errOut strings.Builder
		o, err := parseFlags(tc.args, &errOut)
		if tc.badFlag == "" {
			if err != nil {
				t.Errorf("%v: unexpected error %v (%s)", tc.args, err, errOut.String())
			} else if o == nil {
				t.Errorf("%v: no options", tc.args)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: accepted, want -%s refused", tc.args, tc.badFlag)
			continue
		}
		if !strings.Contains(errOut.String(), "-"+tc.badFlag+" ") {
			t.Errorf("%v: message %q does not name -%s", tc.args, errOut.String(), tc.badFlag)
		}
	}
}

// TestParseFlagsValues checks the parsed values and defaults reach the
// options, and that -h is reported as a help request, not a failure.
func TestParseFlagsValues(t *testing.T) {
	o, err := parseFlags([]string{"-coordinator", "a:1", "-hedge-after", "-1s", "-queue", "7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.coordinator != "a:1" || o.hedgeAfter != -time.Second || o.queue != 7 ||
		o.maxAttempts != 3 || o.probeInterval != 2*time.Second || o.addr != ":8090" {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: got %v, want flag.ErrHelp", err)
	}
	if _, err := parseFlags([]string{"-queue", "x"}, io.Discard); err == nil {
		t.Error("malformed -queue accepted")
	}
}

package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateRTRFlags: the RTR fleet flags are validated up front, before
// the TAL is touched — every rejection names the offending flag so the
// operator can fix the invocation.
func TestValidateRTRFlags(t *testing.T) {
	cases := []struct {
		name         string
		rtrAddr      string
		maxClients   int
		sendQueue    int
		writeTimeout time.Duration
		replicaOf    string
		wantErr      string // empty: must pass
	}{
		{name: "defaults", sendQueue: 32, writeTimeout: 30 * time.Second},
		{name: "full primary", rtrAddr: ":8282", maxClients: 10000, sendQueue: 64,
			writeTimeout: 10 * time.Second},
		{name: "replica", rtrAddr: ":8282", sendQueue: 32, writeTimeout: 30 * time.Second,
			replicaOf: "primary:8282"},
		{name: "negative max clients", maxClients: -1, sendQueue: 32,
			writeTimeout: 30 * time.Second, wantErr: "-rtr-max-clients"},
		{name: "zero send queue", sendQueue: 0, writeTimeout: 30 * time.Second,
			wantErr: "-rtr-send-queue"},
		{name: "zero write timeout", sendQueue: 32, wantErr: "-rtr-write-timeout"},
		{name: "replica without rtr listener", sendQueue: 32, writeTimeout: 30 * time.Second,
			replicaOf: "primary:8282", wantErr: "-rtr-replica-of requires -rtr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateRTRFlags(tc.rtrAddr, tc.maxClients, tc.sendQueue, tc.writeTimeout, tc.replicaOf)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the flag (%q)", err, tc.wantErr)
			}
		})
	}
}

// TestValidateFlags covers the PR 8 resilience-flag validation the RTR
// checks sit alongside.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(3, 10*time.Second, 5, 30*time.Second); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if err := validateFlags(-1, 10*time.Second, 5, 30*time.Second); err == nil {
		t.Error("negative max-retries accepted")
	}
	if err := validateFlags(3, 0, 5, 30*time.Second); err == nil {
		t.Error("zero request-timeout accepted")
	}
	if err := validateFlags(3, 10*time.Second, 0, 30*time.Second); err == nil {
		t.Error("zero breaker-threshold accepted")
	}
	if err := validateFlags(3, 10*time.Second, 5, 0); err == nil {
		t.Error("zero breaker-cooldown accepted")
	}
}

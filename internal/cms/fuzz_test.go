package cms

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"repro/internal/cert"
)

// FuzzParseCMS drives Parse with arbitrary bytes. The CURE paper found
// crash/hang bugs in exactly this layer of production relying parties; the
// first property is the minimal one — Parse must return (obj, nil) or
// (nil, err), never panic, and an accepted object must carry a sane payload.
//
// The rest hold the signature seam to Parse. A verdict-cache check (the
// relying party's: verify on a miss, the kept verdict on a hit) must accept
// and reject exactly what Parse does, with the same error text and the same
// object, calling the check at most once. A check that accepts without
// verifying shows when it runs: only after every structural check passed,
// so the parse cannot fail after it. A check that fails always fails the
// parse.
func FuzzParseCMS(f *testing.F) {
	ee, eeKey := newEE(f)
	valid, err := Sign(OIDContentTypeROA, []byte("fuzz seed payload"), ee, eeKey)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	forged := bytes.Clone(valid)
	forged[len(forged)-1] ^= 0x01 // the last byte of the signature
	f.Add(forged)
	f.Add([]byte{0x30, 0x03, 0x02, 0x01, 0x2A})
	f.Add([]byte{})
	errCheck := errors.New("check refused")
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := Parse(data)
		if err == nil {
			if obj == nil {
				t.Fatal("nil object with nil error")
			}
			if !bytes.Equal(obj.Raw, data) {
				t.Fatal("Raw does not round-trip input")
			}
			if obj.EE == nil {
				t.Fatal("accepted object without EE certificate")
			}
		}

		verdicts := map[[32]byte]error{}
		cached := func(calls *int) SignatureCheck {
			return func(_ *cert.ResourceCert, verify func() error) error {
				*calls++
				key := sha256.Sum256(data)
				v, ok := verdicts[key]
				if !ok {
					v = verify()
					verdicts[key] = v
				}
				return v
			}
		}
		for _, pass := range []string{"miss", "hit"} {
			calls := 0
			got, gotErr := ParseWith(data, cached(&calls))
			if calls > 1 {
				t.Fatalf("%s: check ran %d times", pass, calls)
			}
			if (err == nil) != (gotErr == nil) {
				t.Fatalf("%s: Parse error %v, cached path error %v", pass, err, gotErr)
			}
			if err != nil {
				if err.Error() != gotErr.Error() {
					t.Fatalf("%s: Parse error %q, cached path error %q", pass, err, gotErr)
				}
				continue
			}
			if !bytes.Equal(got.Raw, obj.Raw) || !got.ContentType.Equal(obj.ContentType) ||
				!bytes.Equal(got.Content, obj.Content) || !bytes.Equal(got.EE.Raw, obj.EE.Raw) {
				t.Fatalf("%s: cached path returned a different object", pass)
			}
		}

		calls := 0
		accepted, acceptErr := ParseWith(data, func(*cert.ResourceCert, func() error) error {
			calls++
			return nil
		})
		if calls > 1 {
			t.Fatalf("accepting check ran %d times", calls)
		}
		if (calls == 1) != (acceptErr == nil) {
			t.Fatalf("accepting check ran %d times, parse error %v: the check must run last and alone decide", calls, acceptErr)
		}
		if acceptErr == nil && !bytes.Equal(accepted.Raw, data) {
			t.Fatal("Raw does not round-trip input")
		}
		if calls == 0 && (err == nil || err.Error() != acceptErr.Error()) {
			t.Fatalf("structural failure %v differs from Parse's %v", acceptErr, err)
		}

		refused, refuseErr := ParseWith(data, func(*cert.ResourceCert, func() error) error { return errCheck })
		if refused != nil || refuseErr == nil {
			t.Fatal("a failing check did not fail the parse")
		}
		if calls == 1 && !errors.Is(refuseErr, errCheck) {
			t.Fatalf("failing check's parse error %v does not carry the check's", refuseErr)
		}
	})
}

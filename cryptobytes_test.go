package secureproc_test

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secureproc"
	"secureproc/internal/integrity"
	"secureproc/internal/xom"
)

var updateCryptoBytes = flag.Bool("update-cryptobytes", false, "rewrite testdata/cryptobytes.golden from the current code")

const cryptoBytesGolden = "testdata/cryptobytes.golden"

// cryptoBytes produces every functional-crypto output whose bytes are
// pinned: protected-memory ciphertext in each write mode for both pad
// ciphers, a line MAC, a hash-tree root and sealed register saves. A
// change of cipher or MAC implementation must leave all of them as they
// are.
func cryptoBytes(t *testing.T) [][2]string {
	t.Helper()
	var out [][2]string
	add := func(name string, b []byte) { out = append(out, [2]string{name, hex.EncodeToString(b)}) }

	const lineBytes = 128
	const va = 0x4000_1000
	pt := make([]byte, 2*lineBytes)
	for i := range pt {
		pt[i] = byte(7*i + 3)
	}
	for _, c := range []struct {
		name string
		kind secureproc.CipherKind
		key  string
	}{
		{"des", secureproc.CipherDES, "8bytekey"},
		{"aes", secureproc.CipherAES, "sixteen byte key"},
	} {
		pm, err := secureproc.NewProtectedMemory(c.kind, []byte(c.key), lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		raw := func(a uint64) []byte {
			b, err := pm.RawLine(a)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		for seq := 1; seq <= 2; seq++ {
			if err := pm.WriteLineOTP(va, pt[:lineBytes]); err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s/otp-seq%d", c.name, seq), raw(va))
		}
		if err := pm.WriteLineDirect(va+lineBytes, pt[lineBytes:]); err != nil {
			t.Fatal(err)
		}
		add(c.name+"/direct", raw(va+lineBytes))
		if err := pm.InstallOTPImage(va+4*lineBytes, pt); err != nil {
			t.Fatal(err)
		}
		add(c.name+"/image-line0", raw(va+4*lineBytes))
		add(c.name+"/image-line1", raw(va+5*lineBytes))
	}

	v, err := integrity.NewVerifier([]byte("golden mac key"), lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	mac, err := v.MAC(va, 3, pt[:lineBytes])
	if err != nil {
		t.Fatal(err)
	}
	add("verifier/mac", mac[:])

	tree, err := integrity.NewHashTree([]byte("golden tree key"), lineBytes, 8)
	if err != nil {
		t.Fatal(err)
	}
	add("hashtree/root-zero", tree.Root())
	for i, leaf := range []int{2, 5} {
		if err := tree.Update(leaf, pt[i*lineBytes:(i+1)*lineBytes]); err != nil {
			t.Fatal(err)
		}
	}
	add("hashtree/root-updated", tree.Root())

	mgr := xom.NewManager()
	id := mgr.Enter([]byte("golden program key"))
	for save := 1; save <= 2; save++ {
		rf := &xom.RegisterFile{}
		for r := 0; r < 32; r++ {
			rf.Write(id, r, uint32(r)*0x01010101+uint32(save))
		}
		sealed, err := mgr.SealRegisters(id, rf)
		if err != nil {
			t.Fatal(err)
		}
		words := make([]byte, 0, 4*len(sealed.Cipher))
		for _, w := range sealed.Cipher {
			words = append(words, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		add(fmt.Sprintf("xom/seal%d-cipher", save), words)
		add(fmt.Sprintf("xom/seal%d-mac", save), sealed.MAC[:])
	}
	return out
}

// TestCryptoBytesGolden pins the exact bytes of the functional crypto
// path against testdata/cryptobytes.golden. Regenerate only for an
// intended change of the encryption equations:
//
//	go test . -run TestCryptoBytesGolden -update-cryptobytes
func TestCryptoBytesGolden(t *testing.T) {
	got := cryptoBytes(t)
	if *updateCryptoBytes {
		var b strings.Builder
		for _, kv := range got {
			fmt.Fprintf(&b, "%s %s\n", kv[0], kv[1])
		}
		if err := os.MkdirAll(filepath.Dir(cryptoBytesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cryptoBytesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(cryptoBytesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, code produced %d", len(want), len(got))
	}
	for _, kv := range got {
		if w, ok := want[kv[0]]; !ok {
			t.Errorf("%s: missing from golden", kv[0])
		} else if w != kv[1] {
			t.Errorf("%s:\n got %s\nwant %s", kv[0], kv[1], w)
		}
	}
}

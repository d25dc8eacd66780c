package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// fingerprintsJSON maps a key — "ingest:<seed>" for the ingest corpus,
// "sim" for the seed-independent simulation — to the hash of the expected
// result. Every run prints its key and hash; a seed that is not listed is
// checked only against the in-process reference fold. An entry changes
// only when a change means to alter the profile content, and the README
// says how to regenerate it.
//
//go:embed testdata/fingerprints.json
var fingerprintsJSON []byte

// fingerprintKey names a seeded corpus's entry in the file.
func fingerprintKey(corpus string, seed int64) string {
	return fmt.Sprintf("%s:%d", corpus, seed)
}

// checkFingerprint compares a result hash with the checked-in value
// under key, when there is one.
func checkFingerprint(key, got string) error {
	var fps map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &fps); err != nil {
		return fmt.Errorf("bench: testdata/fingerprints.json: %w", err)
	}
	if want, ok := fps[key]; ok && want != got {
		return fmt.Errorf("bench: result fingerprint of %s is %s, checked-in %s", key, got, want)
	}
	return nil
}

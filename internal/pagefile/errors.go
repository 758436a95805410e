package pagefile

import (
	"errors"
	"fmt"
)

// Error taxonomy of the storage layer. Every storage failure a caller
// can observe falls into one of three buckets:
//
//   - ErrChecksum: the bytes came back, but they are not the bytes that
//     were written — detected corruption. Permanent for that page until
//     repaired; retrying the read returns the same corrupt bytes.
//   - ErrBadPage: the page is unusable for a structural reason (a trailer
//     naming another page, a failed decode). Permanent.
//   - anything else (I/O errors from the OS, ErrFault, ErrPageOutOfRange,
//     a test's injected fault, ...): the operation that hit it fails and
//     the error surfaces verbatim. No layer retries it; the caller may
//     retry the operation.

// ErrChecksum is the sentinel matched by errors.Is for any page whose
// stored CRC does not cover its payload. The concrete error in the chain
// is a *ChecksumError carrying the page and both CRC values.
var ErrChecksum = errors.New("pagefile: page checksum mismatch")

// ChecksumError reports a corrupt page detected on read or scrub.
type ChecksumError struct {
	Page PageID
	Want uint32 // CRC stored in the page trailer
	Got  uint32 // CRC computed over the payload read back
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("pagefile: page %d checksum mismatch (stored %08x, computed %08x)", e.Page, e.Want, e.Got)
}

// Is makes errors.Is(err, ErrChecksum) match.
func (e *ChecksumError) Is(target error) bool { return target == ErrChecksum }

// ErrBadPage is the sentinel matched by errors.Is for pages that are
// structurally unusable: a trailer naming another page, or failing
// validation during decode. The concrete error is a *BadPageError.
var ErrBadPage = errors.New("pagefile: bad page")

// BadPageError reports a page rejected for a structural reason.
type BadPageError struct {
	Page   PageID
	Reason string
}

func (e *BadPageError) Error() string {
	return fmt.Sprintf("pagefile: bad page %d: %s", e.Page, e.Reason)
}

// Is makes errors.Is(err, ErrBadPage) match.
func (e *BadPageError) Is(target error) bool { return target == ErrBadPage }

// ErrFault is matched by errors.Is when reading a page in FileStore's
// mapping faults while View checks it: the page lies past the end of a
// file cut short under the store, or the medium failed the read.
var ErrFault = errors.New("pagefile: fault reading a mapped page")

// Optional store capabilities, probed with type assertions by the layers
// above. Wrappers forward them to their inner store so a capability
// implemented by the base store stays reachable through the whole stack.

// PageVerifier verifies a page's checksum without returning its contents
// and without charging the read to Stats — the scrubber's off-hot-path
// probe. Stores without checksums return nil (nothing to verify).
type PageVerifier interface {
	VerifyPage(id PageID) error
}

// Corrupter flips one payload bit in place WITHOUT updating any checksum
// trailer — package chaos's model of silent media corruption. FileStore
// is one, and its next Read of the page returns a *ChecksumError.
type Corrupter interface {
	CorruptPayload(id PageID, bit int) error
}

// TornWriter persists only the first n bytes of buf, leaving the page
// tail and any checksum trailer at their previous contents — package
// chaos's model of a torn (partially persisted) write.
type TornWriter interface {
	WriteTorn(id PageID, buf []byte, n int) error
}

// Package ntfs implements a simplified NTFS-like volume: a byte-
// addressable virtual disk holding a boot sector, a Master File Table of
// fixed-size FILE records with typed attributes, a cluster allocation
// bitmap, and non-resident data runs in the real NTFS runlist encoding.
//
// The design goal is fidelity of the *scanning* story from the paper: the
// truth about which files exist lives only in these bytes. The Volume
// type additionally maintains an in-memory directory index so that the
// simulated filesystem driver can answer enumeration IRPs quickly, but
// GhostBuster's low-level scan (RawScan) never touches that index — it
// re-parses the device image the way the paper's MFT scanner reads the
// disk under the APIs.
package ntfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Geometry constants. Real NTFS values are configurable at format time;
// we fix the common defaults.
const (
	BytesPerSector    = 512
	SectorsPerCluster = 8
	ClusterSize       = BytesPerSector * SectorsPerCluster // 4096
	RecordSize        = 1024                               // MFT FILE record

	// Well-known MFT record numbers, following NTFS conventions.
	RecordMFT    = 0
	RecordBitmap = 1
	RecordVolume = 2
	RecordRoot   = 5 // root directory, as in real NTFS
	firstUserRec = 6

	// FirstUserRecord is the first MFT record number available to user
	// files; records below it hold filesystem metadata. Fault layers use
	// it to target damage at user records only.
	FirstUserRecord = firstUserRec
)

// Attribute type codes (the NTFS on-disk values).
const (
	AttrStandardInformation = 0x10
	AttrFileName            = 0x30
	AttrData                = 0x80
	attrEnd                 = 0xFFFFFFFF
)

// FILE record flags.
const (
	flagInUse     = 0x0001
	flagDirectory = 0x0002
)

// DOS-style file attribute bits stored in $STANDARD_INFORMATION.
const (
	FileAttrReadOnly = 0x0001
	FileAttrHidden   = 0x0002
	FileAttrSystem   = 0x0004
)

// MaxNameLen is the longest component name storable in a $FILE_NAME
// attribute (UTF-16 code units), as in NTFS.
const MaxNameLen = 255

// Boot sector field offsets.
const (
	bootOEMOff           = 3  // "NTFS    "
	bootBytesPerSecOff   = 11 // u16
	bootSecPerClusterOff = 13 // u8
	bootTotalClustersOff = 40 // u64
	bootMFTStartOff      = 48 // u64
	bootMFTRecordsOff    = 56 // u64 (simulation extension)
	bootBitmapStartOff   = 64 // u64
	bootBitmapLenOff     = 72 // u64 clusters
	bootSigOff           = 510
)

var (
	// ErrNotFound reports a path that does not resolve.
	ErrNotFound = errors.New("ntfs: not found")
	// ErrExists reports a create over an existing name.
	ErrExists = errors.New("ntfs: already exists")
	// ErrNotDir reports a path component that is not a directory.
	ErrNotDir = errors.New("ntfs: not a directory")
	// ErrIsDir reports a data operation on a directory.
	ErrIsDir = errors.New("ntfs: is a directory")
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = errors.New("ntfs: directory not empty")
	// ErrVolumeFull reports exhaustion of MFT records or clusters.
	ErrVolumeFull = errors.New("ntfs: volume full")
	// ErrCorrupt reports an unparseable on-disk structure.
	ErrCorrupt = errors.New("ntfs: corrupt structure")
	// ErrNameTooLong reports a component name over MaxNameLen.
	ErrNameTooLong = errors.New("ntfs: name too long")
)

// Geometry describes where the on-disk regions live, as recorded in the
// boot sector.
type Geometry struct {
	TotalClusters  uint64
	MFTStart       uint64 // cluster index of first MFT record
	MFTRecords     uint64 // capacity in records
	BitmapStart    uint64 // cluster index
	BitmapClusters uint64
}

// encodeBoot writes a boot sector describing geo into the first sector.
func encodeBoot(dev []byte, geo Geometry) {
	dev[0], dev[1], dev[2] = 0xEB, 0x52, 0x90
	copy(dev[bootOEMOff:], "NTFS    ")
	binary.LittleEndian.PutUint16(dev[bootBytesPerSecOff:], BytesPerSector)
	dev[bootSecPerClusterOff] = SectorsPerCluster
	binary.LittleEndian.PutUint64(dev[bootTotalClustersOff:], geo.TotalClusters)
	binary.LittleEndian.PutUint64(dev[bootMFTStartOff:], geo.MFTStart)
	binary.LittleEndian.PutUint64(dev[bootMFTRecordsOff:], geo.MFTRecords)
	binary.LittleEndian.PutUint64(dev[bootBitmapStartOff:], geo.BitmapStart)
	binary.LittleEndian.PutUint64(dev[bootBitmapLenOff:], geo.BitmapClusters)
	dev[bootSigOff] = 0x55
	dev[bootSigOff+1] = 0xAA
}

// decodeBoot parses the boot sector of a device image.
// DecodeBootSector parses the boot sector of a device image into its
// geometry, validating signatures and bounds.
func DecodeBootSector(dev []byte) (Geometry, error) {
	return decodeBoot(dev)
}

func decodeBoot(dev []byte) (Geometry, error) {
	var geo Geometry
	if len(dev) < BytesPerSector {
		return geo, fmt.Errorf("%w: image smaller than a sector", ErrCorrupt)
	}
	if string(dev[bootOEMOff:bootOEMOff+8]) != "NTFS    " {
		return geo, fmt.Errorf("%w: missing NTFS OEM signature", ErrCorrupt)
	}
	if dev[bootSigOff] != 0x55 || dev[bootSigOff+1] != 0xAA {
		return geo, fmt.Errorf("%w: missing boot signature", ErrCorrupt)
	}
	geo.TotalClusters = binary.LittleEndian.Uint64(dev[bootTotalClustersOff:])
	geo.MFTStart = binary.LittleEndian.Uint64(dev[bootMFTStartOff:])
	geo.MFTRecords = binary.LittleEndian.Uint64(dev[bootMFTRecordsOff:])
	geo.BitmapStart = binary.LittleEndian.Uint64(dev[bootBitmapStartOff:])
	geo.BitmapClusters = binary.LittleEndian.Uint64(dev[bootBitmapLenOff:])
	if geo.TotalClusters == 0 || geo.TotalClusters*ClusterSize > uint64(len(dev)) {
		return geo, fmt.Errorf("%w: geometry exceeds image", ErrCorrupt)
	}
	return geo, nil
}

// encodeUTF16 converts a Go string to UTF-16LE bytes.
func encodeUTF16(s string) []byte {
	u := utf16.Encode([]rune(s))
	b := make([]byte, 2*len(u))
	for i, c := range u {
		binary.LittleEndian.PutUint16(b[2*i:], c)
	}
	return b
}

// decodeUTF16 converts UTF-16LE bytes to a Go string, exactly as
// string(utf16.Decode(units)) would: a trailing odd byte is ignored and
// unpaired surrogates become U+FFFD. Names cross from the borrowed
// device bytes to an owned string in one pass; an all-ASCII name (the
// common case) costs a single allocation, the string itself.
func decodeUTF16(b []byte) string {
	n := len(b) / 2
	ascii := true
	for i := 0; i < n; i++ {
		if b[2*i+1] != 0 || b[2*i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		var sb strings.Builder
		sb.Grow(n)
		for i := 0; i < n; i++ {
			sb.WriteByte(b[2*i])
		}
		return sb.String()
	}
	out := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		r := rune(binary.LittleEndian.Uint16(b[2*i:]))
		if utf16.IsSurrogate(r) {
			if i+1 < n {
				if pair := utf16.DecodeRune(r, rune(binary.LittleEndian.Uint16(b[2*i+2:]))); pair != utf8.RuneError {
					out = utf8.AppendRune(out, pair)
					i++
					continue
				}
			}
			r = utf8.RuneError
		}
		out = utf8.AppendRune(out, r)
	}
	return string(out)
}

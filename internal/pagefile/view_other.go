//go:build !unix

package pagefile

// regions is empty where the file is not mapped: FileStore has no View
// there, and readers copy its pages with Read.
type regions struct{}

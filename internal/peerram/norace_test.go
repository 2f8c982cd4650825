//go:build !race

package peerram

const raceEnabled = false

//go:build race

package peerram

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts
// on purpose: allocation counts through a pool are meaningless there.
const raceEnabled = true

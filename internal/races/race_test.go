//go:build race

package races

// raceEnabled reports a -race build, under which the checkpointed oracle
// cases run one schedule instead of three.
const raceEnabled = true

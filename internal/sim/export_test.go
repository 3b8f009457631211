package sim

import "flag"

// UpdateGolden re-records the files under testdata from the code under
// test. Only do that on a commit whose virtual times and trace are trusted:
// the files are the oracle that says a rewrite of the event core changed no
// simulated result.
var UpdateGolden = flag.Bool("update-golden", false, "re-record internal/sim/testdata")

// Events is the number of events the machine has processed so far.
func (m *Machine) Events() int64 { return m.nEvents }

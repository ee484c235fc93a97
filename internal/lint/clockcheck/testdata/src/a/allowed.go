// ddlint:allow-wallclock — this fixture file stands in for a deliberate
// host-time measurement.
package a

import "time"

func wallNow() time.Time { return time.Now() }

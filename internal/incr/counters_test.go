package incr

import (
	"reflect"
	"testing"
)

// TestCountersAddCoversEveryField sets every field of a Counters to 1 and
// adds it twice: a counter added to the struct but not to Add, which every
// multi-store total sums through, fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var one Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	var sum Counters
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Int(); got != 2 {
			t.Errorf("Counters.%s = %d after adding 1 twice, want 2", s.Type().Field(i).Name, got)
		}
	}
}

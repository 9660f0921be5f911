package trace

// StoreCap reports the capacity of the stream's reused input store.
func (s *Stream) StoreCap() int { return cap(s.store) }

// LargestChunk returns the encoded length of the largest chunk in a
// well-formed LTRC2 log, or -1 when data is not one.
func LargestChunk(data []byte) int {
	largest := 0
	for off := len(magic); off < len(data); {
		_, _, end, _, err := parseChunkV2(data, off)
		if err != nil {
			return -1
		}
		largest = max(largest, end-off)
		off = end
	}
	return largest
}

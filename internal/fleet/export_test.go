package fleet

import "reflect"

// The codec's unexported surface, for the external test that runs the
// exhibit registry (internal/experiment imports this package, so that
// test cannot live inside it).
var (
	EncodeCellData = encodeCellData
	EncodeFresh    = encodeFresh
)

// CodecTypes lists every cell type (*T) the codec has coded so far.
func CodecTypes() []reflect.Type {
	var types []reflect.Type
	codecs.Range(func(k, _ any) bool {
		types = append(types, k.(reflect.Type))
		return true
	})
	return types
}

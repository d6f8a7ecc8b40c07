#ifndef UV_IO_SERIALIZE_H_
#define UV_IO_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace uv::io {

// Binary tensor-list container ("UVT1" magic). Used for model checkpoints:
// parameters are written/read in their canonical Params() order.
Status SaveTensors(const std::string& path, const std::vector<Tensor>& tensors);
StatusOr<std::vector<Tensor>> LoadTensors(const std::string& path);

// The inner UVT1 codec over an already-open stream, shared between the
// standalone files above and containers that embed a tensor list (the UVCK
// checkpoint). WriteTensorList emits magic + count + per-tensor records and
// checks every write; ReadTensorList validates the declared count and every
// tensor shape against the bytes actually remaining in the stream before
// allocating, so a corrupt header can neither trigger a huge allocation nor
// return partially-filled tensors. Reading stops at the end of the record:
// trailing bytes (a container's next section) are left unread.
Status WriteTensorList(std::FILE* f, const std::string& path,
                       const std::vector<Tensor>& tensors);
StatusOr<std::vector<Tensor>> ReadTensorList(std::FILE* f,
                                             const std::string& path);

// Bytes from the current position to the end of the stream (position
// restored), or -1 if the stream cannot be sized. Readers check length
// fields against it to reject a corrupt header before allocating.
int64_t BytesRemaining(std::FILE* f);

// Convenience wrappers over a parameter list. Loading requires the shapes
// on disk to match the existing parameters exactly.
Status SaveParams(const std::string& path,
                  const std::vector<ag::VarPtr>& params);
Status LoadParams(const std::string& path,
                  const std::vector<ag::VarPtr>& params);

// Writes a tensor as CSV (one row per line), for external analysis.
Status SaveTensorCsv(const std::string& path, const Tensor& tensor);

}  // namespace uv::io

#endif  // UV_IO_SERIALIZE_H_

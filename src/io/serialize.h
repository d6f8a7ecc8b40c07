#ifndef UV_IO_SERIALIZE_H_
#define UV_IO_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
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

// One UVT1 tensor record: i32 rows, i32 cols, then rows * cols floats. The
// reader rejects a negative shape, or one that Tensor's int32 element
// count or the bytes left in the stream cannot hold, before allocating.
// The UVG1 graph file embeds its feature and tile tensors as records too.
Status WriteTensorRecord(std::FILE* f, const std::string& path,
                         const Tensor& t);
Status ReadTensorRecord(std::FILE* f, const std::string& path, Tensor* t);

// Bytes from the current position to the end of the stream (position
// restored), or -1 if the stream cannot be sized. Readers check length
// fields against it to reject a corrupt header before allocating.
int64_t BytesRemaining(std::FILE* f);

// A stream that fcloses itself, and one fixed-size field in native byte
// order (false on a short write or read): the pieces every binary format
// here is written and read with.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WritePod(std::FILE* f, const T& value) {
  return std::fwrite(&value, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadPod(std::FILE* f, T* value) {
  return std::fread(value, sizeof(T), 1, f) == 1;
}

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

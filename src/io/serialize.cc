#include "io/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

namespace uv::io {
namespace {

constexpr char kMagic[4] = {'U', 'V', 'T', '1'};

}  // namespace

int64_t BytesRemaining(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return static_cast<int64_t>(end) - static_cast<int64_t>(pos);
}

Status WriteTensorRecord(std::FILE* f, const std::string& path,
                         const Tensor& t) {
  const size_t n = static_cast<size_t>(t.size());
  if (!WritePod<int32_t>(f, t.rows()) || !WritePod<int32_t>(f, t.cols()) ||
      (n > 0 && std::fwrite(t.data(), sizeof(float), n, f) != n)) {
    return Status::IoError("write failed: " + path);
  }
  return Status::Ok();
}

Status ReadTensorRecord(std::FILE* f, const std::string& path, Tensor* t) {
  int32_t rows = 0, cols = 0;
  if (!ReadPod(f, &rows) || !ReadPod(f, &cols) || rows < 0 || cols < 0) {
    return Status::IoError("bad tensor header in " + path);
  }
  const int64_t n = static_cast<int64_t>(rows) * static_cast<int64_t>(cols);
  // Shape must fit both the int32 element count Tensor uses and the bytes
  // actually left in the stream.
  if (n > BytesRemaining(f) / static_cast<int64_t>(sizeof(float)) ||
      n > INT32_MAX) {
    return Status::IoError("bad tensor header in " + path);
  }
  *t = Tensor::Uninit(rows, cols);
  if (n > 0 && std::fread(t->data(), sizeof(float), static_cast<size_t>(n),
                          f) != static_cast<size_t>(n)) {
    return Status::IoError("truncated tensor data in " + path);
  }
  return Status::Ok();
}

Status WriteTensorList(std::FILE* f, const std::string& path,
                       const std::vector<Tensor>& tensors) {
  if (std::fwrite(kMagic, 1, 4, f) != 4 ||
      !WritePod(f, static_cast<int32_t>(tensors.size()))) {
    return Status::IoError("write failed: " + path);
  }
  for (const Tensor& t : tensors) {
    Status written = WriteTensorRecord(f, path, t);
    if (!written.ok()) return written;
  }
  return Status::Ok();
}

StatusOr<std::vector<Tensor>> ReadTensorList(std::FILE* f,
                                             const std::string& path) {
  char magic[4];
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IoError("bad magic in " + path);
  }
  int32_t count = 0;
  if (!ReadPod(f, &count) || count < 0) {
    return Status::IoError("bad tensor count in " + path);
  }
  const int64_t remaining = BytesRemaining(f);
  if (remaining < 0) return Status::IoError("cannot size " + path);
  // Every tensor costs at least its 8-byte header, so a count the file
  // cannot possibly hold is rejected before it sizes the vector below.
  if (static_cast<int64_t>(count) * 8 > remaining) {
    return Status::IoError("bad tensor count in " + path);
  }
  std::vector<Tensor> tensors(count);
  for (Tensor& t : tensors) {
    Status read = ReadTensorRecord(f, path, &t);
    if (!read.ok()) return read;
  }
  return tensors;
}

Status SaveTensors(const std::string& path,
                   const std::vector<Tensor>& tensors) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  return WriteTensorList(f.get(), path, tensors);
}

StatusOr<std::vector<Tensor>> LoadTensors(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  return ReadTensorList(f.get(), path);
}

Status SaveParams(const std::string& path,
                  const std::vector<ag::VarPtr>& params) {
  std::vector<Tensor> tensors;
  tensors.reserve(params.size());
  for (const auto& p : params) tensors.push_back(p->value);
  return SaveTensors(path, tensors);
}

Status LoadParams(const std::string& path,
                  const std::vector<ag::VarPtr>& params) {
  auto loaded = LoadTensors(path);
  if (!loaded.ok()) return loaded.status();
  const auto& tensors = loaded.value();
  if (tensors.size() != params.size()) {
    return Status::InvalidArgument("parameter count mismatch for " + path);
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!tensors[i].SameShape(params[i]->value)) {
      return Status::InvalidArgument("parameter shape mismatch for " + path);
    }
    params[i]->value = tensors[i];
  }
  return Status::Ok();
}

Status SaveTensorCsv(const std::string& path, const Tensor& tensor) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  for (int r = 0; r < tensor.rows(); ++r) {
    for (int c = 0; c < tensor.cols(); ++c) {
      std::fprintf(f.get(), c ? ",%g" : "%g", tensor.at(r, c));
    }
    std::fputc('\n', f.get());
  }
  return Status::Ok();
}

}  // namespace uv::io

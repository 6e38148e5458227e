#include "io/vfs.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace vsensor::io {

namespace {

/// Real file: a plain ofstream. A failed write reports written = 0 — the
/// C++ stream API cannot say how much of a failed write landed, and on the
/// real filesystem partial progress without an error is not observable
/// anyway (FaultFs is where byte-exact short writes come from).
class RealFile final : public File {
 public:
  RealFile(const std::string& path, std::ios::openmode mode)
      : path_(path), out_(path, mode) {}

  bool is_open() const { return static_cast<bool>(out_); }

  IoResult append(const char* data, size_t len) override {
    out_.write(data, static_cast<std::streamsize>(len));
    if (!out_) return IoResult::failure("write failed: " + path_);
    return IoResult::success(len);
  }

  IoResult flush() override {
    out_.flush();
    if (!out_) return IoResult::failure("flush failed: " + path_);
    return IoResult::success();
  }

 private:
  std::string path_;
  std::ofstream out_;
};

std::unique_ptr<File> open_real(const std::string& path,
                                std::ios::openmode mode, std::string* error) {
  auto file = std::make_unique<RealFile>(path, mode);
  if (!file->is_open()) {
    if (error != nullptr) *error = "cannot open for writing: " + path;
    return nullptr;
  }
  return file;
}

}  // namespace

std::unique_ptr<File> RealFs::open_truncate(const std::string& path,
                                            std::string* error) {
  return open_real(path, std::ios::binary | std::ios::trunc, error);
}

std::unique_ptr<File> RealFs::open_append(const std::string& path,
                                          std::string* error) {
  return open_real(path, std::ios::binary | std::ios::app, error);
}

IoResult RealFs::rename_file(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return IoResult::failure("cannot rename " + from + " over " + to);
  }
  return IoResult::success();
}

IoResult RealFs::truncate_file(const std::string& path, uint64_t size) {
  std::error_code ec;
  std::filesystem::resize_file(path, size, ec);
  if (ec) {
    return IoResult::failure("cannot truncate " + path + ": " + ec.message());
  }
  return IoResult::success();
}

IoResult RealFs::remove_file(const std::string& path) {
  std::error_code ec;
  const bool removed = std::filesystem::remove(path, ec);
  if (ec) return IoResult::failure("cannot remove " + path + ": " + ec.message());
  if (!removed) return IoResult{false, 0, ""};  // absent: nothing to do
  return IoResult::success();
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<size_t>(size));
  in.seekg(0);
  return static_cast<bool>(in.read(out->data(), size));
}

RealFs& real_fs() {
  static RealFs fs;
  return fs;
}

int FileStreambuf::overflow(int ch) {
  if (ch == traits_type::eof()) return sync() == 0 ? 0 : traits_type::eof();
  const char c = static_cast<char>(ch);
  return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
}

std::streamsize FileStreambuf::xsputn(const char* s, std::streamsize n) {
  if (failed()) return 0;
  const auto r = file_->append(s, static_cast<size_t>(n));
  if (!r.ok) {
    failed_ = true;
    // Report what landed so the ostream enters its failed state.
    return static_cast<std::streamsize>(r.written);
  }
  return n;
}

int FileStreambuf::sync() {
  if (failed()) return -1;
  if (!file_->flush().ok) {
    failed_ = true;
    return -1;
  }
  return 0;
}

}  // namespace vsensor::io

#include "io/vfs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
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

ReadWindow::ReadWindow(std::string_view bytes)
    : size_(bytes.size()), window_(bytes) {}

ReadWindow::~ReadWindow() = default;

bool ReadWindow::open_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return false;
  auto in = std::make_unique<std::ifstream>(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = *in ? std::streamoff(in->tellg()) : -1;
  if (size < 0) return false;
  in_ = std::move(in);
  size_ = static_cast<uint64_t>(size);
  at_ = 0;
  window_ = {};
  return true;
}

std::string_view ReadWindow::view(uint64_t pos, size_t n) {
  pos = std::min(pos, size_);
  n = static_cast<size_t>(std::min<uint64_t>(n, size_ - pos));
  if (pos < at_ || pos + n > at_ + window_.size()) refill(pos, n);
  return window_.substr(static_cast<size_t>(pos - at_), n);
}

void ReadWindow::refill(uint64_t pos, size_t n) {
  size_t keep = 0;
  if (pos >= at_ && pos < at_ + window_.size()) {
    keep = static_cast<size_t>(at_ + window_.size() - pos);
    std::memmove(buf_.data(), window_.data() + (pos - at_), keep);
  }
  const auto want = static_cast<size_t>(
      std::min<uint64_t>(std::max(n, kReadBytes), size_ - pos));
  if (buf_.size() < want) buf_.resize(want);
  size_t have = keep;
  if (in_ != nullptr && have < want) {
    in_->clear();
    in_->seekg(static_cast<std::streamoff>(pos + have));
    in_->read(buf_.data() + have, static_cast<std::streamsize>(want - have));
    have += static_cast<size_t>(std::max<std::streamsize>(in_->gcount(), 0));
  }
  at_ = pos;
  window_ = std::string_view(buf_.data(), have);
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

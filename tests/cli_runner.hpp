// Shared helpers for the tests that drive a command-line tool as a child
// process: run a shell command and capture its exit code and merged output,
// and name, read and write the scratch files it works on.
#pragma once

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace esv::cli {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs `command` through the shell with stderr merged into stdout.
/// `exit_code` stays -1 when the command did not exit normally.
inline RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// A scratch file name private to this process; `prefix` keeps the files of
/// different test binaries apart.
inline std::string temp_path(const std::string& prefix,
                             const std::string& name) {
  return ::testing::TempDir() + prefix + std::to_string(::getpid()) + "_" +
         name;
}

/// The file's bytes, or "" when it cannot be read.
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace esv::cli

#pragma once
// Tiny command-line flag helper shared by the example mains. Replaces the
// hand-rolled strcmp chains: flags are declared once with a bound target and
// a help line, unknown flags and malformed values are a hard error (exit
// code 2 convention in the callers), and --help prints the generated usage
// text.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace scenario {

class Flags {
 public:
  explicit Flags(std::string prog) : prog_(std::move(prog)) {}

  /// An integer flag; values below `min` are rejected like malformed ones.
  void add_int(const char* name, int* target, const char* help, int min = INT_MIN) {
    specs_.push_back({name, help, Kind::Int, target, nullptr, nullptr, min});
  }
  void add_string(const char* name, std::string* target, const char* help) {
    specs_.push_back({name, help, Kind::String, nullptr, target, nullptr, INT_MIN});
  }
  void add_flag(const char* name, bool* target, const char* help) {
    specs_.push_back({name, help, Kind::Bool, nullptr, nullptr, target, INT_MIN});
  }

  /// Parse argv. Returns false (after printing a diagnostic + usage to
  /// stderr) on an unknown flag, a missing value or an integer value that is
  /// not a whole decimal number within int range and at or above the flag's
  /// minimum; the caller should exit non-zero. "--help" prints usage to
  /// stdout and exits 0.
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
        print_usage(stdout);
        std::exit(0);
      }
      const Spec* spec = nullptr;
      for (const auto& s : specs_)
        if (!std::strcmp(argv[i], s.name)) {
          spec = &s;
          break;
        }
      if (!spec) {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        print_usage(stderr);
        return false;
      }
      if (spec->kind == Kind::Bool) {
        *spec->bool_target = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", spec->name);
        print_usage(stderr);
        return false;
      }
      ++i;
      if (spec->kind == Kind::String) {
        *spec->str_target = argv[i];
        continue;
      }
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX) {
        std::fprintf(stderr, "%s expects an integer, got '%s'\n", spec->name, argv[i]);
        print_usage(stderr);
        return false;
      }
      if (v < spec->min) {
        std::fprintf(stderr, "%s must be at least %d, got %ld\n", spec->name, spec->min, v);
        print_usage(stderr);
        return false;
      }
      *spec->int_target = static_cast<int>(v);
    }
    return true;
  }

 private:
  enum class Kind { Int, String, Bool };
  struct Spec {
    const char* name;
    const char* help;
    Kind kind;
    int* int_target;
    std::string* str_target;
    bool* bool_target;
    int min;
  };

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [options]\n", prog_.c_str());
    for (const auto& s : specs_)
      std::fprintf(out, "  %-22s %s\n",
                   s.kind == Kind::Bool ? s.name : (std::string(s.name) + " V").c_str(), s.help);
  }

  std::string prog_;
  std::vector<Spec> specs_;
};

}  // namespace scenario

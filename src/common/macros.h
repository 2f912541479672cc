// Common preprocessor macros used across the nexus codebase.
#ifndef NEXUS_COMMON_MACROS_H_
#define NEXUS_COMMON_MACROS_H_

/// Deletes copy construction/assignment for a class.
#define NEXUS_DISALLOW_COPY_AND_ASSIGN(TypeName) \
  TypeName(const TypeName&) = delete;            \
  TypeName& operator=(const TypeName&) = delete

#define NEXUS_CONCAT_IMPL(x, y) x##y
#define NEXUS_CONCAT(x, y) NEXUS_CONCAT_IMPL(x, y)

#if defined(__GNUC__) || defined(__clang__)
#define NEXUS_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
#define NEXUS_PREDICT_TRUE(x) (__builtin_expect(!!(x), 1))
/// Hints that `addr` is about to be written (scatter loops whose targets
/// miss the cache).
#define NEXUS_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1)
#else
#define NEXUS_PREDICT_FALSE(x) (x)
#define NEXUS_PREDICT_TRUE(x) (x)
#define NEXUS_PREFETCH_WRITE(addr) ((void)(addr))
#endif

#endif  // NEXUS_COMMON_MACROS_H_
